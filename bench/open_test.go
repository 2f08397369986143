package main

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// An open loop times each request from when it was due. Against a server
// that stalls once, the requests queued behind the stall must show the wait
// (a latency measured from the actual send would flatter the server), and
// the generator must report how late it dispatched them.
func TestOpenLoopLatencyIsFromTheDueTime(t *testing.T) {
	const (
		perWorker = 40
		gap       = time.Millisecond
		stall     = 60 * time.Millisecond
	)
	var ops []op
	for i := 0; i < perWorker; i++ {
		for w := 0; w < workers; w++ {
			ops = append(ops, op{Problem: len(ops), Variant: w, Due: time.Duration(i) * gap})
		}
	}
	inst := &instance{name: "stalled_stub", open: true, ops: ops, probs: make([]problem, len(ops))}
	var mu sync.Mutex
	naive := make([]float64, 0, len(ops)) // service time as the server saw it
	st := &state{do: func(_, i int) (float64, error) {
		t0 := time.Now()
		if i < workers { // each stream's first request hits the stall
			time.Sleep(stall)
		}
		mu.Lock()
		naive = append(naive, float64(time.Since(t0).Nanoseconds())/1e3)
		mu.Unlock()
		return 1, nil
	}}
	r := runRound(inst, st, nil, make([]float64, len(ops)))
	if r.failed != 0 || len(r.latencies) != len(ops) {
		t.Fatalf("%d failed, %d latencies for %d operations", r.failed, len(r.latencies), len(ops))
	}
	sort.Float64s(naive)
	sort.Float64s(r.latencies)
	sort.Float64s(r.lateness)
	naiveP50, correctedP50 := percentile(naive, 50), percentile(r.latencies, 50)
	// All requests were due within 40 ms and the stall lasted 60: every one
	// of them waited, so the corrected median is tens of milliseconds while
	// the naive median is the stub's few microseconds.
	if correctedP50 < 15_000 || correctedP50 < 50*naiveP50 {
		t.Errorf("corrected p50 %.0f us does not show the stall (naive p50 %.0f us)", correctedP50, naiveP50)
	}
	if late := percentile(r.lateness, 99); late < 15_000 {
		t.Errorf("generator lateness p99 %.0f us: the generator was at least 20 ms late", late)
	}
	if s := r.stats(); s.latenessP99 == 0 || s.sloMet == 1 {
		t.Errorf("summary hides the stall: lateness p99 %g, slo met %g", s.latenessP99, s.sloMet)
	}
}

// A closed loop gives each worker every other operation, whatever happens.
func TestClosedLoopSplitsByParity(t *testing.T) {
	ops := make([]op, 11)
	inst := &instance{name: "stub", ops: ops, probs: make([]problem, 1)}
	seen := make([]int, len(ops))
	st := &state{do: func(w, i int) (float64, error) {
		seen[i] = w + 1
		return 2, nil
	}}
	mk := make([]float64, len(ops))
	r := runRound(inst, st, nil, mk)
	for i, w := range seen {
		if w != i%workers+1 {
			t.Fatalf("operation %d ran on worker %d", i, w-1)
		}
	}
	if r.attempted != 11 || r.withinSLO != 11 || mk[10] != 2 {
		t.Errorf("round result %+v, makespans %v", r, mk)
	}
}
