//go:build race

package dem

// raceEnabled reports whether the race detector is instrumenting this
// test binary (build-tag counterpart in race_off_test.go).
const raceEnabled = true
