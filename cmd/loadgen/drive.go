package main

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/loadmodel"
	"alpacomm/internal/service"
)

// The one load loop. Every run — the request mix against one server, the
// owner-routed scaling run against a tier, the churn phase — is a drive:
// N agents, each drawing its arrival process and its request stream from
// seeds derived from (-seed, agent index), issuing an op whenever one
// falls due and folding the outcome into one tally. Closed vs open is the
// arrival process, not a code path: under loadmodel.Closed an arrival is
// due when the previous request completes; under the open processes the
// schedule is fixed before the first request and never waits for the
// server.

// class is the tally row an op's outcome lands in.
type class int

const (
	classPlan  class = iota // /v2/plan and /v2/autotune on a healthy topology
	classFault              // /v2/plan carrying a fault overlay
	classBatch              // /v2/plan:batch
	numClasses
)

// reply is what the tally keeps of a successful response.
type reply struct {
	coalesced, degraded bool
	items               int // batch items planned
}

// op is one request: where it goes and what it asks are closed over.
type op struct {
	class class
	do    func(context.Context) (reply, error)
}

// planOp asks client for one plan.
func planOp(c class, client *alpacomm.PlanClient, req *service.PlanRequest) op {
	return op{class: c, do: func(ctx context.Context) (reply, error) {
		resp, err := client.PlanV2(ctx, req)
		if err != nil {
			return reply{}, err
		}
		return reply{coalesced: resp.Coalesced, degraded: resp.Degraded}, nil
	}}
}

// classTally counts one class of ops. Every success records both
// latencies: from the time the request fell due (what a user waiting on
// the schedule saw — coordinated omission corrected) and from dispatch
// (what the server alone took). Under closed arrivals the two are equal.
type classTally struct {
	attempts, ok, rejected, errs int
	coalesced, degraded, items   int
	due, dispatch                []float64 // seconds, successes only
}

func (c *classTally) add(o classTally) {
	c.attempts += o.attempts
	c.ok += o.ok
	c.rejected += o.rejected
	c.errs += o.errs
	c.coalesced += o.coalesced
	c.degraded += o.degraded
	c.items += o.items
	c.due = append(c.due, o.due...)
	c.dispatch = append(c.dispatch, o.dispatch...)
}

// tally is one agent's (or, merged, one run's) outcome.
type tally struct {
	by       [numClasses]classTally
	firstErr string
}

// sum folds the named classes (all of them when none is named) into one
// row with both latency series sorted ascending.
func (t *tally) sum(classes ...class) classTally {
	var out classTally
	for c := range t.by {
		if len(classes) == 0 || slices.Contains(classes, class(c)) {
			out.add(t.by[c])
		}
	}
	sort.Float64s(out.due)
	sort.Float64s(out.dispatch)
	return out
}

// record folds one outcome in and returns the server's backoff hint (zero
// unless the request was refused as overloaded).
func (t *tally) record(c class, r reply, err error, due, dispatch time.Duration) time.Duration {
	row := &t.by[c]
	row.attempts++
	switch e := err.(type) {
	case nil:
		row.ok++
		row.items += r.items
		if r.coalesced {
			row.coalesced++
		}
		if r.degraded {
			row.degraded++
		}
		row.due = append(row.due, due.Seconds())
		row.dispatch = append(row.dispatch, dispatch.Seconds())
	case *service.OverloadedError:
		row.rejected++
		return e.RetryAfter
	default:
		row.errs++
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
	}
	return 0
}

// maxBackoff caps how long a closed agent honours Retry-After, so a
// closed loop keeps exercising the admission path.
const maxBackoff = 50 * time.Millisecond

// drive describes one run: who asks what (next), when the next request is
// due (arrivals), and when to stop (requests per agent and/or horizon; at
// least one must be set under closed arrivals).
type drive struct {
	agents   int
	seed     uint64
	arrivals func(seed uint64) loadmodel.Process
	next     func(agent int, rng *rand.Rand) op
	requests int           // ops per agent; 0 = unbounded
	horizon  time.Duration // no op falls due at or after this; 0 = unbounded
}

// run executes the drive and returns the merged tally and the wall time
// it took.
func (d drive) run(ctx context.Context) (tally, time.Duration) {
	tallies := make([]tally, d.agents)
	start := time.Now()
	var wg sync.WaitGroup
	for a := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.agent(ctx, a, start, &tallies[a])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all tally
	for _, t := range tallies {
		for c := range all.by {
			all.by[c].add(t.by[c])
		}
		if all.firstErr == "" {
			all.firstErr = t.firstErr
		}
	}
	return all, elapsed
}

// agent is the loop. Agent a's arrival gaps and request draws are a pure
// function of (seed, a): the same agent sees the same streams whatever
// the fleet size and wherever it runs.
func (d drive) agent(ctx context.Context, a int, start time.Time, out *tally) {
	proc := d.arrivals(loadmodel.DeriveSeed(d.seed, a))
	rng := rand.New(rand.NewSource(int64(loadmodel.DeriveSeed(d.seed+1, a))))
	_, closed := proc.(loadmodel.Closed)
	due, free := start, time.Now() // free: when the agent last finished
	for i := 0; d.requests == 0 || i < d.requests; i++ {
		if closed {
			due = free // anchored to the previous completion, not the clock
		}
		due = due.Add(proc.Next())
		if d.horizon > 0 && due.Sub(start) >= d.horizon {
			return
		}
		dispatched := free // behind schedule: dispatch as soon as free
		if wait := due.Sub(free); wait > 0 {
			time.Sleep(wait)
			dispatched = time.Now()
		}
		o := d.next(a, rng)
		r, err := o.do(ctx)
		free = time.Now()
		retry := out.record(o.class, r, err, free.Sub(due), free.Sub(dispatched))
		if closed && retry > 0 {
			// An open agent never backs off: the schedule is the schedule.
			time.Sleep(min(retry, maxBackoff))
			free = time.Now()
		}
	}
}

// closedArrivals is the arrivals value of every closed-loop drive.
func closedArrivals(uint64) loadmodel.Process { return loadmodel.Closed{} }

// buildProcess maps an -arrivals name to its process at the given
// per-agent rate (ignored by closed); nil for an unknown name.
func buildProcess(name string, rate float64, seed uint64) loadmodel.Process {
	switch name {
	case "closed":
		return loadmodel.Closed{}
	case "poisson":
		return loadmodel.NewPoisson(rate, seed)
	case "bursty":
		return loadmodel.StandardBursty(rate, seed)
	case "diurnal":
		return loadmodel.StandardDiurnal(rate, seed)
	}
	return nil
}

// percentileMillis returns the p-th percentile (nearest-rank) in
// milliseconds of an ascending latency slice in seconds.
func percentileMillis(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx] * 1e3
}
