//go:build race

package sim

// raceEnabled reports whether the race detector is on; it changes the
// allocation pattern that the build-bytes test measures.
const raceEnabled = true
