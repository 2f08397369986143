package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"alpacomm/internal/loadmodel"
	"alpacomm/internal/service"
)

// Tests on a simulated clock: the coordinated-omission regression (the
// reason corrected percentiles exist), determinism of the simulated rows,
// and the SLO-vs-no-SLO contrast of the real admission controller. The
// model they drive is the fixture at the end of this file.

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

// TestOpenSimDeterministic pins that the model is a pure function of its
// parameters: the same ones produce an identical row, and a different seed
// produces a different one.
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

// maxSLOGap is the ceiling on a controller-on row's offered-vs-achieved
// gap: holding the p99 by refusing most of the offered load is not holding
// it.
const maxSLOGap = 0.65

// TestOpenSimSLOHoldsBudget pins the controller's contract under a
// saturating offered rate: on every arrival mix it keeps the corrected p99
// within budget by degrading and shedding while serving at least
// 1-maxSLOGap of the offered rate, and the same load without the
// controller blows through the budget — proof the load saturates the
// modeled server and the controller, not slack capacity, holds the SLO.
// The model is a pure function of its parameters, so each row's counters
// and corrected p99 are also pinned exactly; re-record them when the
// controller's policy or the modeled costs change on purpose.
func TestOpenSimSLOHoldsBudget(t *testing.T) {
	const budget = 25 * time.Millisecond
	type pinned struct {
		served, shed, degraded      int
		degrades, sheds, recoveries int64
		correctedP99Ms              float64
	}
	pin := func(r openLoopRow) pinned {
		return pinned{r.Served, r.Shed, r.Degraded, r.Degrades, r.Sheds, r.Recoveries, r.CorrectedP99Ms}
	}
	for _, tc := range []struct {
		mix      string
		slo, raw pinned
	}{
		{"poisson", pinned{19260, 791, 14140, 10, 1, 10, 13.907365}, pinned{served: 20051, correctedP99Ms: 14042.240743}},
		{"bursty", pinned{16233, 0, 11997, 12, 0, 11, 15.602914}, pinned{served: 16233, correctedP99Ms: 11178.533932}},
		{"diurnal", pinned{19435, 3689, 13565, 11, 5, 14, 15.470381}, pinned{served: 23124, correctedP99Ms: 16338.300264000001}},
	} {
		mix := tc.mix
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
		if slo.GapFraction > maxSLOGap {
			t.Errorf("%s: offered-vs-achieved gap %.3f above the %.2f ceiling with the controller on",
				mix, slo.GapFraction, maxSLOGap)
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
		if got := pin(slo); got != tc.slo {
			t.Errorf("%s, controller on: row %+v, pinned %+v", mix, got, tc.slo)
		}
		if got := pin(raw); got != tc.raw {
			t.Errorf("%s, controller off: row %+v, pinned %+v", mix, got, tc.raw)
		}
	}
}

// ---------------------------------------------------------------------------
// The fixture: a discrete-event model of the serve path — fixed worker
// pool, FIFO queue, cache-hit fraction, and the *real*
// service.SLOController on a simulated clock. No wall time, no goroutines:
// a run is a pure function of its parameters. It is a test of the
// controller, not a measurement: the costs below are typed in, not read
// from a server (a live saturating workload is ROADMAP 1(c)).

// The modeled serve path. Changing a value means re-recording the rows
// TestOpenSimSLOHoldsBudget pins.
const (
	simWorkers      = 8
	simFullCost     = 8 * time.Millisecond   // full-quality planning (DFS)
	simDegradedCost = 300 * time.Microsecond // greedy-degraded planning
	simHitCost      = 40 * time.Microsecond  // pre-serialized cache hit
	simHitFraction  = 0.25                   // fraction of arrivals hitting the cache
	simWindow       = 250 * time.Millisecond // controller latency window
	simDwell        = 50 * time.Millisecond  // controller de-escalation dwell
	simDegradeDepth = 2 * simWorkers         // queue depth that degrades
	simShedDepth    = 32 * simWorkers        // queue depth that sheds
)

// simParams configures one simulated run.
type simParams struct {
	mix     string
	rate    float64 // total offered arrivals per second
	agents  int
	horizon time.Duration
	seed    uint64
	budget  time.Duration // 0 disables the SLO controller
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

// simClock adapts simulated time to the controller's injected clock.
type simClock struct{ now time.Duration }

func (c *simClock) time() time.Time { return time.Unix(0, 0).Add(c.now) }

// openSim is the discrete-event state: per-agent arrival streams with one
// connection each, a worker pool with FIFO queue, and the real admission
// controller.
type openSim struct {
	p   simParams
	arr [][]simArrival
	nxt []int
	bsy []bool

	clk *simClock
	ctl *service.SLOController

	running int
	queue   []simQueued
	qhead   int

	completions []simComplete // min-heap by (at, agent)

	served, shed, degraded int
	servedInHorizon        int
	corrected, naive       []float64 // seconds
}

// runOpenSim executes one simulated run and returns its row.
func runOpenSim(p simParams) openLoopRow {
	s := &openSim{p: p, clk: &simClock{}}
	if p.budget > 0 {
		s.ctl = service.NewSLOController(service.SLOConfig{
			P99Budget:    p.budget,
			Window:       simWindow,
			Dwell:        simDwell,
			EvalEvery:    -1, // re-evaluate every Admit: decisions depend only on the trace
			DegradeDepth: simDegradeDepth,
			ShedDepth:    simShedDepth,
		}, s.clk.time)
	}

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
		SLO:         p.budget > 0,
		Agents:      p.agents,
		Seed:        p.seed,
		Offered:     offered,
		OfferedRPS:  float64(offered) / horizonSec,
		AchievedRPS: float64(s.servedInHorizon) / horizonSec,
		Served:      s.served,
		Shed:        s.shed,
		Degraded:    s.degraded,
		BudgetMs:    float64(p.budget) / float64(time.Millisecond),
	}
	row.setLatencies(s.corrected, s.naive)
	if row.OfferedRPS > 0 {
		row.GapFraction = 1 - row.AchievedRPS/row.OfferedRPS
	}
	if s.ctl != nil {
		st := s.ctl.Snapshot()
		row.Degrades, row.Sheds, row.Recoveries = st.Degrades, st.Sheds, st.Recoveries
	}
	return row
}

// agentNext dispatches the agent's due arrivals in order until one is in
// flight (the agent's single connection is busy) or none are due. Shed
// requests finish instantly, so a backlog built up behind a stall can
// drain several arrivals at one instant.
func (s *openSim) agentNext(now time.Duration, a int) {
	for s.nxt[a] < len(s.arr[a]) && s.arr[a][s.nxt[a]].intended <= now {
		r := s.arr[a][s.nxt[a]]
		s.nxt[a]++
		if s.dispatch(now, a, r) {
			s.bsy[a] = true
			return
		}
	}
	s.bsy[a] = false
}

// dispatch admits one request exactly as the /v2 handler does: cache hits
// always serve, degraded mode swaps the planning cost, shed mode rejects
// misses. Reports whether the request occupies the agent's connection.
func (s *openSim) dispatch(now time.Duration, a int, r simArrival) bool {
	mode := service.AdmitFull
	if s.ctl != nil {
		s.clk.now = now
		mode = s.ctl.Admit(s.running + len(s.queue) - s.qhead)
	}
	var cost time.Duration
	switch {
	case r.hit:
		cost = simHitCost
	case mode == service.AdmitShed:
		s.shed++
		s.ctl.NoteShed(false)
		return false
	case mode == service.AdmitDegraded:
		cost = simDegradedCost
		s.degraded++
		s.ctl.NoteDegraded()
	default:
		cost = simFullCost
	}
	if s.running < simWorkers {
		s.running++
		s.pushCompletion(simComplete{
			at: s.stallAdjust(now) + cost, agent: a, intended: r.intended, dispatched: now,
		})
	} else {
		s.queue = append(s.queue, simQueued{agent: a, intended: r.intended, dispatched: now, cost: cost})
	}
	return true
}

// complete retires one served request: record both latencies, feed the
// controller, hand the worker to the queue head, and let the agent
// dispatch its next due arrival.
func (s *openSim) complete(e simComplete) {
	s.served++
	if e.at <= s.p.horizon {
		s.servedInHorizon++
	}
	s.corrected = append(s.corrected, (e.at - e.intended).Seconds())
	s.naive = append(s.naive, (e.at - e.dispatched).Seconds())
	if s.ctl != nil {
		s.clk.now = e.at
		s.ctl.Observe(e.at - e.dispatched)
	}
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
