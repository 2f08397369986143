package main

import (
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	// "The highest percentile with at least ten samples beyond it."
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := geomean([]float64{1, 100}); got < 9.999999 || got > 10.000001 {
		t.Errorf("geomean = %g", got)
	}
	if got := geomean([]float64{1, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g", got)
	}
}

// A disturbed round must not move a workload's numbers: a speed is read from
// the best round, a share or a byte count from the median over rounds.
func TestSummarizeReadsSpeedFromTheBestRound(t *testing.T) {
	round := func(wall time.Duration, lat float64, cpu time.Duration, within int, alloc uint64) roundResult {
		r := roundResult{wall: wall, attempted: 100, withinSLO: within, use: usage{cpu: cpu, allocBytes: alloc}}
		for i := 0; i < 100; i++ {
			r.latencies = append(r.latencies, lat)
		}
		return r
	}
	s := summarize([]roundStats{
		round(2*time.Second, 20, 200*time.Millisecond, 90, 100*512).stats(),
		round(time.Second, 10, 100*time.Millisecond, 100, 100*512).stats(),
		round(10*time.Second, 900, 5*time.Second, 20, 100*4096).stats(), // a neighbour woke up
	})
	if s.throughput != 100 || s.goodput != 100 {
		t.Errorf("throughput %g goodput %g, want 100 (the best round)", s.throughput, s.goodput)
	}
	if s.p50 != 10 || s.cpuPerOp != 1000 {
		t.Errorf("p50 %g cpu %g, want 10 and 1000 (the best round)", s.p50, s.cpuPerOp)
	}
	if s.allocPerOp != 512 || s.sloMet != 0.9 {
		t.Errorf("alloc %g slo %g, want 512 and 0.9 (the median round)", s.allocPerOp, s.sloMet)
	}
	if s.rounds != 3 || s.attempted != 300 || s.samples != 100 {
		t.Errorf("rounds %d attempted %d samples %d", s.rounds, s.attempted, s.samples)
	}
}

// A failed operation has no latency but still counts against the limit.
func TestSummarizeCountsFailuresAgainstSLO(t *testing.T) {
	r := roundResult{wall: time.Second, attempted: 10, failed: 2, withinSLO: 7, latencies: make([]float64, 8)}
	s := summarize([]roundStats{r.stats()})
	if s.sloMet != 0.7 || s.failed != 2 || s.throughput != 8 {
		t.Errorf("slo %g failed %d throughput %g", s.sloMet, s.failed, s.throughput)
	}
}
