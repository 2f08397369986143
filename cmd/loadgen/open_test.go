package main

import (
	"reflect"
	"testing"
	"time"
)

// Tests for the open-loop engine: the coordinated-omission regression
// (the reason corrected percentiles exist), determinism of the simulated
// rows, and the SLO-vs-no-SLO contrast the benchgate -slo gate relies on.

// TestCoordinatedOmissionCorrection pins the correction: a server that
// stalls for one second in the middle of the run must show that second in
// the corrected p99, while the naive (dispatch-measured) p99 stays small
// because agents with a busy connection simply dispatch late. A closed
// loop — or an open loop measured naively — would report the naive
// figure and hide the outage.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	row := runOpenSim(simParams{
		mix:        "poisson",
		rate:       1000,
		agents:     10, // ~100 arrivals per agent land inside the stall
		horizon:    3 * time.Second,
		seed:       7,
		budget:     0, // no controller: the stall must surface undamped
		stallStart: 1 * time.Second,
		stallEnd:   2 * time.Second,
	})
	if row.Shed != 0 || row.Served != row.Offered {
		t.Fatalf("no-SLO stall run shed %d of %d; every request must eventually serve", row.Shed, row.Offered)
	}
	// The last request dispatched before the stall completes ~1s late, and
	// every arrival scheduled during the stall inherits that delay from
	// its intended start.
	if row.CorrectedP99Ms < 500 {
		t.Fatalf("corrected p99 = %.2fms; a 1s stall must dominate it", row.CorrectedP99Ms)
	}
	if ratio := row.CorrectedP99Ms / row.NaiveP99Ms; ratio < 10 {
		t.Fatalf("corrected p99 %.2fms only %.1fx naive %.2fms; correction must expose the stall",
			row.CorrectedP99Ms, ratio, row.NaiveP99Ms)
	}
	if row.CorrectedP50Ms < row.NaiveP50Ms {
		t.Fatalf("corrected p50 %.3fms < naive p50 %.3fms; corrected latency includes schedule delay",
			row.CorrectedP50Ms, row.NaiveP50Ms)
	}
}

// TestOpenSimDeterministic pins the BENCH contract: the same parameters
// produce an identical row, and a different seed produces a different
// one.
func TestOpenSimDeterministic(t *testing.T) {
	p := simParams{
		mix: "bursty", rate: 5000, agents: 200,
		horizon: time.Second, seed: 3, budget: 25 * time.Millisecond,
	}
	a, b := runOpenSim(p), runOpenSim(p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical params diverge:\n %+v\n %+v", a, b)
	}
	p.seed = 4
	if c := runOpenSim(p); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced an identical row")
	}
}

// TestOpenSimSLOHoldsBudget pins the acceptance criterion the -slo gate
// enforces: under a saturating offered rate, the controller keeps the
// corrected p99 within budget by degrading and shedding, while the same
// load without the controller blows through it.
func TestOpenSimSLOHoldsBudget(t *testing.T) {
	const budget = 25 * time.Millisecond
	for _, mix := range []string{"poisson", "bursty", "diurnal"} {
		base := simParams{
			mix: mix, rate: 20000, agents: 800,
			horizon: time.Second, seed: 1,
		}
		withSLO, withoutSLO := base, base
		withSLO.budget = budget
		slo := runOpenSim(withSLO)
		raw := runOpenSim(withoutSLO)
		if slo.CorrectedP99Ms > budget.Seconds()*1e3 {
			t.Errorf("%s: corrected p99 %.2fms exceeds the %.0fms budget with the controller on",
				mix, slo.CorrectedP99Ms, budget.Seconds()*1e3)
		}
		if slo.Degraded == 0 {
			t.Errorf("%s: controller never degraded under a saturating rate", mix)
		}
		if raw.CorrectedP99Ms <= budget.Seconds()*1e3 {
			t.Errorf("%s: no-SLO corrected p99 %.2fms within budget — the load is not saturating",
				mix, raw.CorrectedP99Ms)
		}
		if slo.Served+slo.Shed != slo.Offered {
			t.Errorf("%s: served %d + shed %d != offered %d", mix, slo.Served, slo.Shed, slo.Offered)
		}
	}
}
