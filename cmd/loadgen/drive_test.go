package main

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alpacomm/internal/loadmodel"
	"alpacomm/internal/service"
)

// Tests for the one load loop against fake ops — no server. They pin what
// the four loops it replaced each did their own way: which latency is
// measured from where, when an agent backs off, when it stops, and what
// its request stream is a function of.

// fakeOp returns an op that runs fn and reports its error.
func fakeOp(fn func() error) op {
	return op{class: classPlan, do: func(context.Context) (reply, error) { return reply{}, fn() }}
}

// TestArrivalsByName pins the -arrivals values: closed is loadmodel.Closed,
// the three open mixes are distinct open processes, anything else is
// refused.
func TestArrivalsByName(t *testing.T) {
	if _, ok := buildProcess("closed", 0, 1).(loadmodel.Closed); !ok {
		t.Fatal(`"closed" must build loadmodel.Closed`)
	}
	kinds := map[reflect.Type]bool{}
	for _, name := range []string{"poisson", "bursty", "diurnal"} {
		p := buildProcess(name, 100, 1)
		if p == nil {
			t.Fatalf("%q: no process", name)
		}
		if _, closed := p.(loadmodel.Closed); closed {
			t.Fatalf("%q built the closed process", name)
		}
		kinds[reflect.TypeOf(p)] = true
	}
	if len(kinds) != 3 {
		t.Fatalf("open mixes share a process type: %v", kinds)
	}
	for _, name := range []string{"", "open", "poisson,bursty"} {
		if p := buildProcess(name, 100, 1); p != nil {
			t.Fatalf("%q: built %T, want nil", name, p)
		}
	}
}

// TestOpenLoopStallShowsInDueLatencyOnly is the live-loop twin of
// TestCoordinatedOmissionCorrection: under open arrivals one stalled op
// delays every arrival scheduled behind it, and only the latency measured
// from the due time says so. The dispatch latency — all the parent's
// closed and cluster loops recorded — sees one slow sample in hundreds.
func TestOpenLoopStallShowsInDueLatencyOnly(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	all, _ := drive{
		agents:   1,
		seed:     7,
		arrivals: func(s uint64) loadmodel.Process { return loadmodel.NewPoisson(400, s) },
		next: func(int, *rand.Rand) op {
			return fakeOp(func() error {
				if n.Add(1) == 40 {
					time.Sleep(stall)
				}
				return nil
			})
		},
		horizon: time.Second,
	}.run(context.Background())
	row := all.sum()
	if row.ok < 200 || row.ok != row.attempts {
		t.Fatalf("served %d of %d; a 400/s schedule over 1s must offer hundreds and serve all", row.ok, row.attempts)
	}
	dueP99, dispatchP99 := percentileMillis(row.due, 99), percentileMillis(row.dispatch, 99)
	if dueP99 < 0.5*stall.Seconds()*1e3 {
		t.Fatalf("due-time p99 %.1fms: a %v stall over ~30%% of the schedule must dominate it", dueP99, stall)
	}
	if dispatchP99 > dueP99/3 {
		t.Fatalf("dispatch p99 %.1fms vs due-time p99 %.1fms: one slow op in %d must not reach the dispatch p99",
			dispatchP99, dueP99, row.ok)
	}
}

// TestClosedLoopCountsBacksOffAndMeasuresOnce: under loadmodel.Closed a
// request is due when its agent is free, so the two latencies are the
// same series; -requests is honoured exactly; an overloaded reply is
// tallied as rejected and backed off by at most maxBackoff whatever the
// server hints. An open agent given the same replies never sleeps on them.
func TestClosedLoopCountsBacksOffAndMeasuresOnce(t *testing.T) {
	const agents, requests = 4, 25
	all, _ := drive{
		agents: agents, seed: 1, arrivals: closedArrivals, requests: requests,
		next: func(int, *rand.Rand) op {
			return fakeOp(func() error { time.Sleep(100 * time.Microsecond); return nil })
		},
	}.run(context.Background())
	row := all.sum()
	if row.attempts != agents*requests || row.ok != agents*requests {
		t.Fatalf("attempts %d, ok %d, want exactly %d", row.attempts, row.ok, agents*requests)
	}
	if !reflect.DeepEqual(row.due, row.dispatch) {
		t.Fatal("closed arrivals: due-time and dispatch latencies must be equal sample for sample")
	}

	overloaded := func(int, *rand.Rand) op {
		return fakeOp(func() error { return &service.OverloadedError{RetryAfter: time.Hour} })
	}
	all, elapsed := drive{agents: 1, seed: 1, arrivals: closedArrivals, requests: 3, next: overloaded}.run(context.Background())
	if row := all.sum(); row.rejected != 3 || row.ok != 0 || row.errs != 0 {
		t.Fatalf("overloaded replies tallied as %+v, want 3 rejected", row)
	}
	if elapsed < 3*maxBackoff || elapsed > 20*maxBackoff {
		t.Fatalf("closed agent took %v over 3 overloaded replies; want one capped %v backoff each", elapsed, maxBackoff)
	}

	all, elapsed = drive{
		agents: 1, seed: 1, requests: 20, next: overloaded,
		arrivals: func(s uint64) loadmodel.Process { return loadmodel.NewPoisson(1e5, s) },
	}.run(context.Background())
	if row := all.sum(); row.rejected != 20 {
		t.Fatalf("open agent tallied %+v, want 20 rejected", row)
	}
	if elapsed > 10*maxBackoff {
		t.Fatalf("open agent took %v over 20 overloaded replies: it must not back off", elapsed)
	}

	all, _ = drive{agents: 2, seed: 1, arrivals: closedArrivals, requests: 2,
		next: func(int, *rand.Rand) op { return fakeOp(func() error { return errors.New("boom") }) },
	}.run(context.Background())
	if row := all.sum(); row.errs != 4 || all.firstErr != "boom" {
		t.Fatalf("failed ops tallied as %+v (first %q), want 4 errors", row, all.firstErr)
	}
}

// TestAgentStreamIsFunctionOfSeedAndIndex: what agent i draws depends on
// (-seed, i) alone — the same across two runs and across fleet sizes, and
// different under another seed. The parent's cluster loop ignored -seed.
func TestAgentStreamIsFunctionOfSeedAndIndex(t *testing.T) {
	draws := func(agents int, seed uint64) map[int][]int64 {
		var mu sync.Mutex
		got := map[int][]int64{}
		drive{
			agents: agents, seed: seed, arrivals: closedArrivals, requests: 8,
			next: func(a int, rng *rand.Rand) op {
				v := rng.Int63()
				mu.Lock()
				got[a] = append(got[a], v)
				mu.Unlock()
				return fakeOp(func() error { return nil })
			},
		}.run(context.Background())
		return got
	}
	small, again, large := draws(3, 11), draws(3, 11), draws(9, 11)
	if !reflect.DeepEqual(small, again) {
		t.Fatal("same seed, same fleet: agents drew different streams")
	}
	for a, want := range small {
		if !reflect.DeepEqual(large[a], want) {
			t.Fatalf("agent %d drew a different stream in a fleet of 9 than in a fleet of 3", a)
		}
	}
	if reflect.DeepEqual(small[0], small[1]) {
		t.Fatal("agents 0 and 1 drew the same stream")
	}
	if reflect.DeepEqual(draws(3, 12), small) {
		t.Fatal("a different seed drew the same streams")
	}
}
