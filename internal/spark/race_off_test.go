//go:build !race

package spark

const raceEnabled = false
