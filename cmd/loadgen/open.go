package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"alpacomm/internal/loadmodel"
	"alpacomm/internal/service"
)

// Open-loop rows and the deterministic open-loop model. The closed loop
// sends the next request when the previous response lands, so a slow
// server throttles its own load and the measured percentiles flatter it —
// coordinated omission. Open arrivals fix the schedule first: every
// request gets an intended start time drawn from a seeded arrival process
// (internal/loadmodel), agents dispatch on that schedule no matter how
// the server is doing, and latency is measured from the intended start.
//
// Live, that is the one loop in drive.go under -arrivals
// poisson|bursty|diurnal. -open-sim replays the same arrival streams
// through a discrete-event model of the serve path instead — fixed worker
// pool, FIFO queue, cache-hit fraction, and the *real*
// service.SLOController on a simulated clock. No wall time, no
// goroutines: the run is a pure function of its seed, so the BENCH rows
// are byte-identical across reruns and CI can gate on them exactly.

// openLoopRow is one open-loop measurement in BENCH_service.json.
type openLoopRow struct {
	Mix    string `json:"mix"` // poisson | bursty | diurnal
	SLO    bool   `json:"slo"` // admission controller enabled
	Agents int    `json:"agents"`
	Seed   uint64 `json:"seed"`
	// OfferedRPS is the scheduled arrival rate; AchievedRPS counts
	// responses served within the run horizon. GapFraction is the
	// offered-vs-achieved shortfall (0 = the server kept up).
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	GapFraction float64 `json:"gap_fraction"`
	Offered     int     `json:"offered"`
	Served      int     `json:"served"`
	Shed        int     `json:"shed"`
	Degraded    int     `json:"degraded_served"`
	BudgetMs    float64 `json:"budget_ms,omitempty"`
	// Corrected percentiles measure from the intended start (coordinated
	// omission corrected); naive percentiles measure from dispatch, the
	// figure a closed-loop generator would report.
	CorrectedP50Ms  float64 `json:"corrected_p50_ms"`
	CorrectedP99Ms  float64 `json:"corrected_p99_ms"`
	CorrectedP999Ms float64 `json:"corrected_p99_9_ms"`
	NaiveP50Ms      float64 `json:"naive_p50_ms"`
	NaiveP99Ms      float64 `json:"naive_p99_ms"`
	NaiveP999Ms     float64 `json:"naive_p99_9_ms"`
	// Controller counters (SLO rows only).
	Degrades   int64 `json:"degrades,omitempty"`
	Sheds      int64 `json:"sheds,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
}

// setLatencies fills the six percentile columns from the two ascending
// series (seconds).
func (r *openLoopRow) setLatencies(due, dispatch []float64) {
	r.CorrectedP50Ms = percentileMillis(due, 50)
	r.CorrectedP99Ms = percentileMillis(due, 99)
	r.CorrectedP999Ms = percentileMillis(due, 99.9)
	r.NaiveP50Ms = percentileMillis(dispatch, 50)
	r.NaiveP99Ms = percentileMillis(dispatch, 99)
	r.NaiveP999Ms = percentileMillis(dispatch, 99.9)
}

// liveOpenRow is the open_loop row of a live run under open arrivals:
// offered over the schedule window against served over the wall time (the
// window itself when the last arrival finished inside it), and
// the server's own account of its controller — the /v2/stats admission
// block before and after the run, nil when the server runs none.
func liveOpenRow(mix string, agents int, seed uint64, all classTally, window, elapsed time.Duration, before, after *service.AdmissionStats) openLoopRow {
	row := openLoopRow{
		Mix:         mix,
		Agents:      agents,
		Seed:        seed,
		Offered:     all.attempts,
		OfferedRPS:  float64(all.attempts) / window.Seconds(),
		AchievedRPS: float64(all.ok) / max(elapsed, window).Seconds(),
		Served:      all.ok,
		Shed:        all.rejected,
		Degraded:    all.degraded,
	}
	row.setLatencies(all.due, all.dispatch)
	if row.OfferedRPS > 0 {
		row.GapFraction = 1 - row.AchievedRPS/row.OfferedRPS
	}
	if after != nil {
		row.SLO = true
		row.BudgetMs = after.BudgetMs
		row.Degrades, row.Sheds, row.Recoveries = after.Degrades, after.Sheds, after.Recoveries
		if before != nil {
			row.Degrades -= before.Degrades
			row.Sheds -= before.Sheds
			row.Recoveries -= before.Recoveries
		}
	}
	return row
}

// ---------------------------------------------------------------------------
// Deterministic simulation (-open-sim)

// The simulated matrix and serve-path costs. Constants, not flags: they
// parameterize the committed BENCH rows, so changing them means
// regenerating the baseline.
const (
	simRate         = 40000 // total offered arrivals per second
	simAgents       = 1600
	simHorizon      = 2 * time.Second
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

// runOpenSim executes one simulated run and returns its BENCH row.
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

// runOpenSimMode runs the full simulated matrix — every mix, with and
// without the controller — and merges the rows into the report JSON,
// preserving every load-run field already there.
func runOpenSimMode(jsonPath string, seed uint64) {
	var rows []openLoopRow
	for _, mix := range []string{"poisson", "bursty", "diurnal"} {
		for _, b := range []time.Duration{sloBudget, 0} {
			p := simParams{mix: mix, rate: simRate, agents: simAgents, horizon: simHorizon, seed: seed, budget: b}
			row := runOpenSim(p)
			rows = append(rows, row)
			printOpenRow(row)
		}
	}
	if jsonPath != "" {
		rep := readReport(jsonPath)
		rep.OpenLoop = rows
		writeReport(jsonPath, rep)
		fmt.Printf("open-loop rows merged into %s\n", jsonPath)
	}
}

// readReport loads the report at path; a missing file is an empty report.
// Load runs and -open-sim share the artifact, so each starts from what the
// other wrote. The report struct is the file's only writer, so the
// round-trip is lossless.
func readReport(path string) report {
	var rep report
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			fail("read %s: %v", path, err)
		}
	}
	return rep
}

// writeReport writes rep (a report or a clusterReport) as indented JSON.
func writeReport(path string, rep any) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("marshal report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail("write report: %v", err)
	}
}

func printOpenRow(r openLoopRow) {
	slo := "slo off"
	if r.SLO {
		slo = fmt.Sprintf("slo %gms", r.BudgetMs)
	}
	fmt.Printf("open-loop %-7s %-9s %5d agents  offered %7.0f/s  achieved %7.0f/s  gap %5.1f%%\n",
		r.Mix, slo, r.Agents, r.OfferedRPS, r.AchievedRPS, 100*r.GapFraction)
	fmt.Printf("  served %d (degraded %d, shed %d)  corrected p50/p99/p99.9 %.2f/%.2f/%.2fms  naive %.2f/%.2f/%.2fms\n",
		r.Served, r.Degraded, r.Shed,
		r.CorrectedP50Ms, r.CorrectedP99Ms, r.CorrectedP999Ms,
		r.NaiveP50Ms, r.NaiveP99Ms, r.NaiveP999Ms)
	if r.SLO {
		fmt.Printf("  controller: %d degrades, %d sheds, %d recoveries\n", r.Degrades, r.Sheds, r.Recoveries)
	}
}
