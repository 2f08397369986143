// Package determinism exercises the determinism analyzer: order-sensitive
// map iteration, wall-clock reads and global math/rand use are flagged;
// the whitelisted order-insensitive shapes and annotated exemptions are
// not.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func orderSensitive(m map[string]int) {
	for k, v := range m { // want `iteration over map is ordered randomly`
		fmt.Println(k, v)
	}
}

// The sanctioned idiom: collect the keys, sort, iterate — not flagged.
func sortedIteration(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// Integer accumulation commutes — not flagged.
func accumulate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Float accumulation does not commute under IEEE rounding — flagged.
func floatAccumulate(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `iteration over map is ordered randomly`
		total += v
	}
	return total
}

// Map copy and delete commute — not flagged.
func copyAndPrune(dst, src map[string]int) {
	for k, v := range src {
		dst[k] = v
	}
	for k := range dst {
		delete(dst, k)
	}
}

// Max folding commutes — not flagged.
func maxValue(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// Per-bucket in-place sort erases the leaked order — not flagged.
func normalizeBuckets(m map[int][]int) {
	for k := range m {
		sort.Ints(m[k])
	}
}

func wallClock() time.Duration {
	start := time.Now()      // want `wall-clock read time.Now`
	return time.Since(start) // want `wall-clock read time.Since`
}

// The annotation exempts the whole function: deadline mode is an explicit
// caller opt-in here.
//
//alpacomm:allow determinism caller explicitly requested wall-clock budget mode
func allowedWallClock() time.Time {
	return time.Now()
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand.Intn`
}

// A *rand.Rand over a caller-derived seed is the sanctioned pattern — not
// flagged.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Line-level exemption: the annotation on the statement's line excuses
// only that statement.
func lineExempt(m map[string]int) {
	for k, v := range m { //alpacomm:allow determinism debug dump, order immaterial
		fmt.Println(k, v)
	}
	for k, v := range m { // want `iteration over map is ordered randomly`
		fmt.Println(k, v)
	}
}
