//go:build !race

package gda

const raceEnabled = false
