//go:build ledger

package experiments

// The five-seed target: go test -tags ledger -run '^TestLedger' ./internal/experiments
func init() { ledgerSeeds = 5 }
