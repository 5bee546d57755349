//go:build race

package algorand

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-count assertions are skipped under it because the
// instrumentation itself allocates.
const raceEnabled = true
