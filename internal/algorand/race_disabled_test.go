//go:build !race

package algorand

const raceEnabled = false
