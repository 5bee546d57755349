//go:build !race

package eth

const raceEnabled = false
