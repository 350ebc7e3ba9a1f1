//go:build ledger

package experiments

// The twenty-seed target: go test -tags ledger -run '^TestLedger' ./internal/experiments
func init() { ledgerSeeds = 20 }
