package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 99.9% of 1000 at rank 999, not 1000 by rounding.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail percentiles a report may quote, lowest first.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// highestPercentile returns the highest of tailPercentiles that still has
// at least ten samples beyond it in a sample of n, and 50 when even p90 has
// fewer: a percentile resting on a handful of samples is one request's
// luck, not a property of the program.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// geomean returns the geometric mean of positive values; 0 if there are
// none or any is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	cpu        time.Duration // user + system
	allocBytes uint64
}

// readUsage reads process CPU time and cumulative allocation. ReadMemStats
// stops the world, so callers take snapshots outside timed windows.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
	}
}

// retainedHeapMB is the live heap after a forced collection: what the
// caches, memos and journals still hold once the garbage is gone.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC() // what a sync.Pool held survives one collection
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// roundResult is what one round of a workload measured. Latencies are in
// microseconds, from send on closed loops and from the due time on the
// open loop.
type roundResult struct {
	wall      time.Duration
	latencies []float64 // successful operations only
	attempted int
	failed    int
	// withinSLO counts successes answered within sloLimit.
	withinSLO int
	use       usage // consumed during the round
	// lateness is dispatch time minus due time per operation, in
	// microseconds (open loop only).
	lateness []float64
}

// sloLimit is the latency limit an answer must meet to count as good: the
// repository's existing p99 budget.
const sloLimit = 25 * time.Millisecond

// roundStats is a round reduced to its numbers. The runner keeps these and
// drops the samples, so that heap_retained_mb is the program's heap and not
// a few megabytes of latencies per round played.
type roundStats struct {
	attempted, failed, samples   int
	throughput, goodput          float64 // per wall second
	p50                          float64
	sloMet, cpuPerOp, allocPerOp float64
	latenessP99                  float64
}

func (r roundResult) stats() roundStats {
	sorted := func(xs []float64) []float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s
	}
	lat, secs := sorted(r.latencies), r.wall.Seconds()
	return roundStats{
		attempted:   r.attempted,
		failed:      r.failed,
		samples:     len(lat),
		throughput:  float64(len(lat)) / secs,
		goodput:     float64(r.withinSLO) / secs,
		p50:         percentile(lat, 50),
		sloMet:      float64(r.withinSLO) / float64(r.attempted),
		cpuPerOp:    float64(r.use.cpu.Microseconds()) / float64(r.attempted),
		allocPerOp:  float64(r.use.allocBytes) / float64(r.attempted),
		latenessP99: percentile(sorted(r.lateness), 99),
	}
}

// summary is a workload's end-to-end numbers over its rounds.
type summary struct {
	roundStats // attempted and failed are totals, samples is per round
	rounds     int
}

// summarize folds rounds into one number per metric. Every round ran the
// same operation list from the same fresh state, so the rounds are repeated
// measurements of one quantity. Whatever disturbs a round on a shared
// machine (a neighbour on the sibling thread, a stolen core) only ever
// slows it, so a speed is read from the best round: the highest rate, the
// lowest latency and CPU cost. Over ten seeds on the reference box that
// reading spread half as wide as the median over rounds (README.md). What
// the machine does not disturb, the share within the limit and bytes
// allocated, is the median over rounds, as is the generator's lateness.
func summarize(rounds []roundStats) summary {
	col := func(f func(roundStats) float64) []float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return xs
	}
	s := summary{rounds: len(rounds)}
	for _, r := range rounds {
		s.attempted += r.attempted
		s.failed += r.failed
		s.samples = r.samples
	}
	s.throughput = slices.Max(col(func(r roundStats) float64 { return r.throughput }))
	s.goodput = slices.Max(col(func(r roundStats) float64 { return r.goodput }))
	s.p50 = slices.Min(col(func(r roundStats) float64 { return r.p50 }))
	s.cpuPerOp = slices.Min(col(func(r roundStats) float64 { return r.cpuPerOp }))
	s.sloMet = median(col(func(r roundStats) float64 { return r.sloMet }))
	s.allocPerOp = median(col(func(r roundStats) float64 { return r.allocPerOp }))
	s.latenessP99 = median(col(func(r roundStats) float64 { return r.latenessP99 }))
	return s
}
