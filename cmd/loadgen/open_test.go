package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"alpacomm/internal/loadmodel"
)

// Tests on a simulated clock: the coordinated-omission regression (the
// reason corrected percentiles exist) and determinism of the simulated
// rows. The model they drive is the fixture at the end of this file.

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
		stallStart: 1 * time.Second,
		stallEnd:   2 * time.Second,
	})
	if row.Served != row.Offered {
		t.Fatalf("stall run served %d of %d; every request must eventually serve", row.Served, row.Offered)
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

// TestOpenSimDeterministic pins that the model is a pure function of its
// parameters: the same ones produce an identical row, and a different seed
// produces a different one.
func TestOpenSimDeterministic(t *testing.T) {
	p := simParams{
		mix: "bursty", rate: 5000, agents: 200,
		horizon: time.Second, seed: 3,
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

// ---------------------------------------------------------------------------
// The fixture: a discrete-event model of the serve path — fixed worker
// pool, FIFO queue, cache-hit fraction — on a simulated clock. No wall
// time, no goroutines: a run is a pure function of its parameters. It is a
// test of the open-loop accounting, not a measurement: the costs below are
// typed in, not read from a server, so nothing here speaks for the
// admission controller (its tests are in internal/service).
const (
	simWorkers     = 8
	simFullCost    = 8 * time.Millisecond  // a cache miss
	simHitCost     = 40 * time.Microsecond // a pre-serialized cache hit
	simHitFraction = 0.25                  // fraction of arrivals hitting the cache
)

// simParams configures one simulated run.
type simParams struct {
	mix     string
	rate    float64 // total offered arrivals per second
	agents  int
	horizon time.Duration
	seed    uint64
	// stall freezes service starts inside [stallStart, stallEnd): the
	// deliberately wedged server of the coordinated-omission regression
	// test.
	stallStart, stallEnd time.Duration
}

// simArrival is one scheduled request: intended start plus whether it
// hits the plan cache (drawn at schedule build time so the trace is fixed
// before the run).
type simArrival struct {
	intended time.Duration
	hit      bool
}

// simComplete is a queued completion event.
type simComplete struct {
	at         time.Duration
	agent      int
	intended   time.Duration
	dispatched time.Duration
}

// simQueued is one request waiting for a worker.
type simQueued struct {
	agent      int
	intended   time.Duration
	dispatched time.Duration
	cost       time.Duration
}

// openSim is the discrete-event state: per-agent arrival streams with one
// connection each, and a worker pool with FIFO queue.
type openSim struct {
	p   simParams
	arr [][]simArrival
	nxt []int
	bsy []bool

	running int
	queue   []simQueued
	qhead   int

	completions []simComplete // min-heap by (at, agent)

	served, servedInHorizon int
	corrected, naive        []float64 // seconds
}

// runOpenSim executes one simulated run and returns its row.
func runOpenSim(p simParams) openLoopRow {
	s := &openSim{p: p}

	// Build the full schedule up front: per-agent streams from derived
	// seeds, cache-hit draws from an independent derived stream.
	perAgent := p.rate / float64(p.agents)
	offered := 0
	s.arr = make([][]simArrival, p.agents)
	s.nxt = make([]int, p.agents)
	s.bsy = make([]bool, p.agents)
	type arrivalEvent struct {
		at    time.Duration
		agent int
		idx   int
	}
	var events []arrivalEvent
	for a := 0; a < p.agents; a++ {
		proc := buildProcess(p.mix, perAgent, loadmodel.DeriveSeed(p.seed, a))
		hits := rand.New(rand.NewSource(int64(loadmodel.DeriveSeed(p.seed+1, a))))
		for _, off := range loadmodel.Offsets(proc, p.horizon) {
			s.arr[a] = append(s.arr[a], simArrival{intended: off, hit: hits.Float64() < simHitFraction})
			events = append(events, arrivalEvent{at: off, agent: a, idx: len(s.arr[a]) - 1})
			offered++
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].agent < events[j].agent
	})

	// Event loop: completions and arrivals merged in time order,
	// completions first on ties so freed workers and agents are visible
	// to same-instant arrivals.
	ei := 0
	for ei < len(events) || len(s.completions) > 0 {
		if len(s.completions) > 0 &&
			(ei == len(events) || s.completions[0].at <= events[ei].at) {
			s.complete(s.popCompletion())
			continue
		}
		ev := events[ei]
		ei++
		if !s.bsy[ev.agent] && ev.idx == s.nxt[ev.agent] {
			s.agentNext(ev.at, ev.agent)
		}
	}

	sort.Float64s(s.corrected)
	sort.Float64s(s.naive)
	horizonSec := p.horizon.Seconds()
	row := openLoopRow{
		Mix:         p.mix,
		Agents:      p.agents,
		Seed:        p.seed,
		Offered:     offered,
		OfferedRPS:  float64(offered) / horizonSec,
		AchievedRPS: float64(s.servedInHorizon) / horizonSec,
		Served:      s.served,
	}
	row.setLatencies(s.corrected, s.naive)
	if row.OfferedRPS > 0 {
		row.GapFraction = 1 - row.AchievedRPS/row.OfferedRPS
	}
	return row
}

// agentNext dispatches the agent's next arrival if it is due; the agent's
// single connection is then busy until that request completes.
func (s *openSim) agentNext(now time.Duration, a int) {
	s.bsy[a] = s.nxt[a] < len(s.arr[a]) && s.arr[a][s.nxt[a]].intended <= now
	if s.bsy[a] {
		s.dispatch(now, a, s.arr[a][s.nxt[a]])
		s.nxt[a]++
	}
}

// dispatch starts one request on a free worker, or queues it behind the
// busy ones.
func (s *openSim) dispatch(now time.Duration, a int, r simArrival) {
	cost := simFullCost
	if r.hit {
		cost = simHitCost
	}
	if s.running < simWorkers {
		s.running++
		s.pushCompletion(simComplete{
			at: s.stallAdjust(now) + cost, agent: a, intended: r.intended, dispatched: now,
		})
	} else {
		s.queue = append(s.queue, simQueued{agent: a, intended: r.intended, dispatched: now, cost: cost})
	}
}

// complete retires one served request: record both latencies, hand the
// worker to the queue head, and let the agent dispatch its next due
// arrival.
func (s *openSim) complete(e simComplete) {
	s.served++
	if e.at <= s.p.horizon {
		s.servedInHorizon++
	}
	s.corrected = append(s.corrected, (e.at - e.intended).Seconds())
	s.naive = append(s.naive, (e.at - e.dispatched).Seconds())
	s.running--
	if s.qhead < len(s.queue) {
		q := s.queue[s.qhead]
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		s.running++
		s.pushCompletion(simComplete{
			at: s.stallAdjust(e.at) + q.cost, agent: q.agent, intended: q.intended, dispatched: q.dispatched,
		})
	}
	s.agentNext(e.at, e.agent)
}

// stallAdjust delays a service start that lands inside the stall window.
func (s *openSim) stallAdjust(t time.Duration) time.Duration {
	if t >= s.p.stallStart && t < s.p.stallEnd {
		return s.p.stallEnd
	}
	return t
}

// pushCompletion / popCompletion: a small binary min-heap ordered by
// (time, agent) so same-instant completions retire in a fixed order.
func (s *openSim) pushCompletion(e simComplete) {
	h := append(s.completions, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !completionLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.completions = h
}

func (s *openSim) popCompletion() simComplete {
	h := s.completions
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && completionLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && completionLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.completions = h
	return top
}

func completionLess(a, b simComplete) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.agent < b.agent
}
