//go:build !race

package dem

// raceEnabled reports whether the race detector is instrumenting this
// test binary (build-tag counterpart in race_on_test.go). The exactness
// tests cover fewer catalog circuits under instrumentation, and the
// timing-ratio gate skips.
const raceEnabled = false
