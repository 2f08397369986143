package loadmodel

import (
	"math"
	"testing"
	"time"
)

// Property tests for the arrival processes: empirical rates match the
// configured rates within tolerance, identical seeds reproduce identical
// traces exactly, and derived per-agent seeds yield disjoint streams.

// empiricalRate counts arrivals over enough of the process to average out
// burst cycles and diurnal periods, and returns arrivals per second.
func empiricalRate(p Process, horizon time.Duration) float64 {
	n := 0
	for t := p.Next(); t < horizon; t += p.Next() {
		n++
	}
	return float64(n) / horizon.Seconds()
}

// TestEmpiricalMeanRate pins each distribution's long-run rate: the
// normalized bursty and diurnal shapes must deliver the same mean offered
// load as plain Poisson, or offered-vs-achieved comparisons across mixes
// would be meaningless.
func TestEmpiricalMeanRate(t *testing.T) {
	const rate = 500.0
	// Horizon covers many burst residences and diurnal periods. The MMPP
	// sets the length: its count variance is dominated by rate-switching
	// (std ≈ 2% of the mean at 1000s for these shapes), so 5% tolerance
	// keeps a comfortable margin. The processes are pure RNG draws; 500k
	// arrivals cost milliseconds.
	const horizon = 1000 * time.Second
	cases := []struct {
		name string
		p    Process
		want float64
	}{
		{"poisson", NewPoisson(rate, 1), rate},
		{"bursty", StandardBursty(rate, 2), rate},
		{"diurnal", StandardDiurnal(rate, 3), rate},
		{"bursty-custom", NewBursty(BurstyConfig{
			BaseRate: 100, BurstRate: 900,
			MeanBase: time.Second, MeanBurst: time.Second,
		}, 4), 500},
		{"diurnal-custom", NewDiurnal(DiurnalConfig{
			Trough: 200, Peak: 600, Period: 5 * time.Second,
		}, 5), 400},
	}
	for _, tc := range cases {
		got := empiricalRate(tc.p, horizon)
		if math.Abs(got-tc.want)/tc.want > 0.05 {
			t.Errorf("%s: empirical rate %.1f/s, want %.1f/s ±5%%", tc.name, got, tc.want)
		}
	}
}

// TestConfiguredMeanRate pins the analytic normalization the standard
// shapes rely on.
func TestConfiguredMeanRate(t *testing.T) {
	b := BurstyConfig{BaseRate: 100, BurstRate: 900, MeanBase: 3 * time.Second, MeanBurst: time.Second}
	if got := b.MeanRate(); math.Abs(got-300) > 1e-9 {
		t.Errorf("bursty mean rate = %v, want 300", got)
	}
	d := DiurnalConfig{Trough: 100, Peak: 500}
	if got := d.MeanRate(); got != 300 {
		t.Errorf("diurnal mean rate = %v, want 300", got)
	}
}

// TestSameSeedSameTrace pins exact reproducibility: two processes built
// from the same seed emit identical gaps, which is what makes BENCH
// entries byte-identical across reruns.
func TestSameSeedSameTrace(t *testing.T) {
	builders := map[string]func(seed uint64) Process{
		"poisson": func(s uint64) Process { return NewPoisson(1000, s) },
		"bursty":  func(s uint64) Process { return StandardBursty(1000, s) },
		"diurnal": func(s uint64) Process { return StandardDiurnal(1000, s) },
	}
	for name, build := range builders {
		a, b := build(42), build(42)
		for i := 0; i < 10000; i++ {
			if ga, gb := a.Next(), b.Next(); ga != gb {
				t.Fatalf("%s: gap %d diverges on identical seeds: %v vs %v", name, i, ga, gb)
			}
		}
	}
}

// TestOffsetsDeterministic pins the materialized schedule too: same seed,
// same offsets, strictly increasing, all inside the horizon.
func TestOffsetsDeterministic(t *testing.T) {
	a := Offsets(NewPoisson(2000, 7), time.Second)
	b := Offsets(NewPoisson(2000, 7), time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("offsets not reproducible: %d vs %d arrivals", len(a), len(b))
	}
	prev := time.Duration(-1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d diverges: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= prev || a[i] >= time.Second {
			t.Fatalf("offset %d = %v not strictly increasing within horizon", i, a[i])
		}
		prev = a[i]
	}
}

// TestDerivedSeedsDisjoint pins the sharding property: per-agent derived
// seeds never collide across a large fleet, and neighboring agents'
// streams are unrelated.
func TestDerivedSeedsDisjoint(t *testing.T) {
	const agents = 100000
	seen := make(map[uint64]int, agents)
	for i := 0; i < agents; i++ {
		s := DeriveSeed(12345, i)
		if prev, ok := seen[s]; ok {
			t.Fatalf("agents %d and %d derive the same seed %#x", prev, i, s)
		}
		seen[s] = i
	}

	// Adjacent agents (the worst case for a weak mix) share no prefix of
	// their traces.
	a := NewPoisson(1000, DeriveSeed(12345, 0))
	b := NewPoisson(1000, DeriveSeed(12345, 1))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent agents share %d/1000 identical gaps", same)
	}
}

// TestDeriveSeedStableAcrossProcesses pins the exact derivation: agents
// are assigned by index, so the mapping must never change between builds
// or the sharding contract (and every committed BENCH entry) breaks.
func TestDeriveSeedStableAcrossProcesses(t *testing.T) {
	got := []uint64{DeriveSeed(0, 0), DeriveSeed(0, 1), DeriveSeed(1, 0)}
	want := []uint64{
		0xe220a8397b1dcdaf, // splitmix64(golden gamma)
		0x6e789e6aa1b965f4,
		0x910a2dec89025cc1,
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("DeriveSeed pin %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestClosedIsAnArrivalProcess pins what the load loop relies on: Closed
// is a Process whose gap is always zero, and it alone asserts as Closed —
// that assertion is how a driver knows to anchor the schedule to
// completions and to honour backoff hints.
func TestClosedIsAnArrivalProcess(t *testing.T) {
	var p Process = Closed{}
	for i := 0; i < 3; i++ {
		if gap := p.Next(); gap != 0 {
			t.Fatalf("Closed.Next() = %v, want 0", gap)
		}
	}
	if _, ok := p.(Closed); !ok {
		t.Fatal("Closed held as a Process must assert back to Closed")
	}
	for _, open := range []Process{NewPoisson(10, 1), StandardBursty(10, 1), StandardDiurnal(10, 1)} {
		if _, ok := open.(Closed); ok {
			t.Fatalf("%T asserts as Closed", open)
		}
		if gap := open.Next(); gap <= 0 {
			t.Fatalf("%T.Next() = %v: an open process schedules ahead of the clock", open, gap)
		}
	}
}
