//go:build !race

package chain_test

const raceEnabled = false
