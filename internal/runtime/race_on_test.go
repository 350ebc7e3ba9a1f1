//go:build race

package runtime_test

// raceEnabled reports that the race detector is on, under which the
// runtime allocates on its own account, so allocation counts measure
// the detector rather than the code.
const raceEnabled = true
