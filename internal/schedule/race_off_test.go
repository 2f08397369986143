//go:build !race

package schedule

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions skip under it.
const raceEnabled = false
