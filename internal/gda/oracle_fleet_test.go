//go:build fleet

package gda

// The fleet-scale placement oracles, every TestPlacementOracles case of
// fleetScaleN DCs or more:
// go test -tags fleet -run '^TestPlacementOracles$/^fleet-scale$' ./internal/gda
func init() { fleetOracles = true }
