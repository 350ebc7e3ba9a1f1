//go:build !race

package measure

const raceEnabled = false
