//go:build !race

package bp

// raceEnabled reports whether the race detector is on (race_test.go).
const raceEnabled = false
