//go:build race

package bp

// raceEnabled reports whether the race detector is on. Under it a split
// decode runs tens of times slower, so the split tests decode fewer
// syndromes; every decode still runs every part concurrently.
const raceEnabled = true
