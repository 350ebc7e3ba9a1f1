//go:build race

package netsim

// raceEnabled reports that the race detector is on. Its instrumentation
// allocates on its own account, so allocation counts measure the
// detector rather than the code.
const raceEnabled = true
