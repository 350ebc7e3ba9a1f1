//go:build race

package gda

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of Puts on purpose, so steady-state allocation counts
// measure the detector rather than the code.
const raceEnabled = true
