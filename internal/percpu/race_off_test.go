//go:build !race

package percpu

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions skip under it.
const raceEnabled = false
