package service

import (
	"strconv"
	"sync"
	"time"
)

// SLO-aware admission control. The fixed worker pools bound *concurrency*;
// they know nothing about latency, so under a saturating open-loop arrival
// rate the queue in front of them grows until every response is late. The
// SLOController closes that loop: it watches a sliding window of served
// latencies plus the plan pool's occupancy and decides, per request,
// whether the server can still afford full-quality planning.
//
// The controller is a three-state machine with hysteresis:
//
//	full ──p99 ≥ sloDegradeAt·budget──▶ degraded ──p99 ≥ sloShedAt·budget──▶ shed
//	     ──or the pool is full────────▶
//	  ◀──p99 < sloRecoverAt·budget──       ◀──p99 < sloDegradeAt·budget──
//	     and the pool not full               (after the dwell)
//	     (after the dwell)
//
//   - degraded: /v2/plan misses that must search are planned with the
//     search-free resharding.SchedDegraded ensemble instead of the ensemble
//     DFS — bounded microseconds of scheduling work per fill instead of a
//     node-budgeted search. Degraded responses carry `"degraded":true`
//     (binary: a flags bit) and the X-Alpacomm-Admission header, and
//     partition under their own cache keys (the scheduler is part of
//     resharding.CacheKey), so they never pollute full-quality entries.
//   - shed: misses that must search are rejected with the structured
//     `overloaded` envelope and Retry-After. Cache hits and misses the
//     closed-form candidates prove are always served at full quality —
//     they cost microseconds, and neither degrading nor shedding them
//     would protect anything.
//
// Escalation (full→degraded→shed) acts immediately, one level per
// evaluation; de-escalation additionally requires the dwell in the current
// state, so a p99 estimate oscillating around a threshold cannot flap the
// mode. Pool occupancy is the fast path: a burst fills the pool long
// before its latencies are observable. Occupancy counts the pool's tokens
// (searches queued or running), not requests: a herd coalesces onto one
// token, and a hit or a proven miss takes none. No occupancy sheds: a full
// pool degrades, and a search the pool still refuses is reported as a shed.
//
// The clock is injected (NewSLOController's now). Every decision is a pure
// function of (budget, samples, occupancy, clock), which is what makes the
// degrade→shed→recover sequence unit-testable without sleeps or wall time.

// SLOConfig configures the admission controller. The zero value disables
// it (Config.SLO nil or P99Budget 0 = no controller, fixed pools only).
type SLOConfig struct {
	// P99Budget is the corrected-p99 latency target the server defends.
	// Required: 0 disables the controller.
	P99Budget time.Duration
}

// sloTiming is the controller's timing: constants, not knobs, like the
// thresholds below; package tests shorten them through newSLOController.
type sloTiming struct {
	window     time.Duration // the sliding window p99 is estimated over
	minSamples int           // window population before latency acts
	dwell      time.Duration // residence in a state before de-escalating
	evalEvery  time.Duration // p99 re-estimate throttle; < 0: every Admit
}

var defaultSLOTiming = sloTiming{window: 2 * time.Second, minSamples: 32,
	dwell: 500 * time.Millisecond, evalEvery: 10 * time.Millisecond}

// AdmissionMode is the controller's decision for one request.
type AdmissionMode int

const (
	// AdmitFull: plan at full quality.
	AdmitFull AdmissionMode = iota
	// AdmitDegraded: plan misses that must search with the search-free
	// degraded scheduler.
	AdmitDegraded
	// AdmitShed: serve a search's cached degraded twin, or reject it.
	AdmitShed
)

func (m AdmissionMode) String() string {
	switch m {
	case AdmitFull:
		return "full"
	case AdmitDegraded:
		return "degraded"
	case AdmitShed:
		return "shed"
	default:
		return "mode(" + strconv.Itoa(int(m)) + ")"
	}
}

// AdmissionStats is the /v2/stats `admission` block.
type AdmissionStats struct {
	// Mode is the controller's current state.
	Mode string `json:"mode"`
	// P99Ms is the current sliding-window p99 estimate.
	P99Ms float64 `json:"p99_ms"`
	// BudgetMs is the configured p99 budget.
	BudgetMs float64 `json:"budget_ms"`
	// WindowSamples is the window population behind the estimate.
	WindowSamples int `json:"window_samples"`
	// Degrades / Sheds count escalations into each state; Recoveries counts
	// de-escalations (shed→degraded and degraded→full).
	Degrades   int64 `json:"degrades"`
	Sheds      int64 `json:"sheds"`
	Recoveries int64 `json:"recoveries"`
	// DegradedServed counts responses planned at degraded quality;
	// ShedRequests counts rejected requests, of which FullQualityShed
	// required full quality (and so could not take the degraded path; the
	// intake gate refuses before decoding, so its refusals never count).
	DegradedServed  int64 `json:"degraded_served"`
	ShedRequests    int64 `json:"shed_requests"`
	FullQualityShed int64 `json:"full_quality_shed"`
	// Transitions is the recent transition log, oldest first, as
	// "from→to@<ms since controller start>ms".
	Transitions []string `json:"transitions,omitempty"`
}

// maxSLOSamples bounds the latency ring: at high rates the window is
// effectively "the last 4096 responses", which is plenty for a p99.
const maxSLOSamples = 4096

// The latency thresholds, as fractions of P99Budget: full→degraded at
// sloDegradeAt, degraded→shed at sloShedAt, degraded→full below
// sloRecoverAt (after the dwell). The gap between sloRecoverAt and
// sloDegradeAt is the hysteresis band. Constants, not knobs: no caller
// ever set them, and ROADMAP 3(c) is to fit them from live traces.
const (
	sloDegradeAt = 0.75
	sloShedAt    = 1.0
	sloRecoverAt = 0.5
)

// maxSLOTransitions bounds the transition log kept for stats.
const maxSLOTransitions = 64

type latSample struct {
	at  time.Time
	lat time.Duration
}

// SLOController is the admission controller. Safe for concurrent use. All
// methods are non-blocking; Admit's cost is a mutex plus, at most every
// 10ms, one sort of the window.
type SLOController struct {
	cfg SLOConfig
	// poolCap is the plan pool's capacity (workers + queue): the occupancy
	// at which the pool refuses, and so the one that degrades.
	poolCap int
	timing  sloTiming
	now     func() time.Time

	mu             sync.Mutex
	start          time.Time
	mode           AdmissionMode
	lastEval       time.Time
	evaluated      bool
	lastTransition time.Time
	ring           [maxSLOSamples]latSample
	head, count    int
	scratch        []time.Duration
	p99            time.Duration
	windowN        int

	degrades, sheds, recoveries                   int64
	degradedServed, shedRequests, fullQualityShed int64
	transitions                                   []string
}

// NewSLOController builds a controller; now nil means the wall clock. It
// degrades at the capacity of the plan pool a zero Config gets; New builds
// the server's own controller on the pool it actually made.
func NewSLOController(cfg SLOConfig, now func() time.Time) *SLOController {
	w, q := planPoolSize(0, 0)
	return newSLOController(cfg, w+q, defaultSLOTiming, now)
}

func newSLOController(cfg SLOConfig, poolCap int, timing sloTiming, now func() time.Time) *SLOController {
	if now == nil {
		now = time.Now
	}
	t := now()
	return &SLOController{
		cfg:            cfg,
		poolCap:        poolCap,
		timing:         timing,
		now:            now,
		start:          t,
		lastTransition: t,
	}
}

// Observe records one served request's latency (measured from handler
// entry, i.e. including queue wait). Only successful plan responses are
// observed; rejections are not evidence about service latency.
func (c *SLOController) Observe(lat time.Duration) {
	c.mu.Lock()
	i := (c.head + c.count) % maxSLOSamples
	if c.count == maxSLOSamples {
		c.head = (c.head + 1) % maxSLOSamples
	} else {
		c.count++
	}
	c.ring[i] = latSample{at: c.now(), lat: lat}
	c.mu.Unlock()
}

// Admit evaluates the state machine against the current clock, window and
// plan-pool occupancy (tokens queued or running), and returns the mode the
// request should be served under.
func (c *SLOController) Admit(occupancy int) AdmissionMode {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evaluate(c.now(), occupancy)
	return c.mode
}

// Mode returns the current mode without re-evaluating.
func (c *SLOController) Mode() AdmissionMode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// NoteDegraded counts one response served at degraded quality.
func (c *SLOController) NoteDegraded() {
	c.mu.Lock()
	c.degradedServed++
	c.mu.Unlock()
}

// NoteShed counts one rejected request; fullQuality marks a client that
// required full quality and so could not be served degraded.
func (c *SLOController) NoteShed(fullQuality bool) {
	c.mu.Lock()
	c.shedRequests++
	if fullQuality {
		c.fullQualityShed++
	}
	c.mu.Unlock()
}

// Snapshot returns the stats block.
func (c *SLOController) Snapshot() AdmissionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return AdmissionStats{
		Mode:            c.mode.String(),
		P99Ms:           float64(c.p99) / float64(time.Millisecond),
		BudgetMs:        float64(c.cfg.P99Budget) / float64(time.Millisecond),
		WindowSamples:   c.windowN,
		Degrades:        c.degrades,
		Sheds:           c.sheds,
		Recoveries:      c.recoveries,
		DegradedServed:  c.degradedServed,
		ShedRequests:    c.shedRequests,
		FullQualityShed: c.fullQualityShed,
		Transitions:     append([]string(nil), c.transitions...),
	}
}

// evaluate advances the state machine. Escalations act on the spot (one
// level per evaluation); de-escalations require the dwell plus a p99
// safely inside the next state's band — the hysteresis that keeps an
// estimate hovering at a threshold from flapping the mode. Caller holds mu.
func (c *SLOController) evaluate(now time.Time, occupancy int) {
	if !c.evaluated || c.timing.evalEvery < 0 || now.Sub(c.lastEval) >= c.timing.evalEvery {
		c.p99, c.windowN = c.windowP99(now)
		c.lastEval = now
		c.evaluated = true
	}
	degradeUp := scaleDuration(c.cfg.P99Budget, sloDegradeAt)
	shedUp := scaleDuration(c.cfg.P99Budget, sloShedAt)
	recoverDown := scaleDuration(c.cfg.P99Budget, sloRecoverAt)
	latencyKnown := c.windowN >= c.timing.minSamples
	dwelt := now.Sub(c.lastTransition) >= c.timing.dwell
	poolFull := occupancy >= c.poolCap
	switch c.mode {
	case AdmitFull:
		if (latencyKnown && c.p99 >= degradeUp) || poolFull {
			c.transition(AdmitDegraded, now)
		}
	case AdmitDegraded:
		switch {
		case latencyKnown && c.p99 >= shedUp:
			c.transition(AdmitShed, now)
		case dwelt && c.p99 < recoverDown && !poolFull:
			c.transition(AdmitFull, now)
		}
	case AdmitShed:
		if dwelt && c.p99 < degradeUp {
			c.transition(AdmitDegraded, now)
		}
	}
}

func (c *SLOController) transition(to AdmissionMode, now time.Time) {
	from := c.mode
	c.mode = to
	c.lastTransition = now
	switch {
	case to == AdmitShed:
		c.sheds++
	case to == AdmitDegraded && from == AdmitFull:
		c.degrades++
	default:
		c.recoveries++
	}
	entry := from.String() + "→" + to.String() + "@" +
		strconv.FormatInt(now.Sub(c.start).Milliseconds(), 10) + "ms"
	if len(c.transitions) == maxSLOTransitions {
		copy(c.transitions, c.transitions[1:])
		c.transitions[maxSLOTransitions-1] = entry
	} else {
		c.transitions = append(c.transitions, entry)
	}
}

// windowP99 estimates the nearest-rank p99 over the samples inside the
// window. Caller holds mu.
func (c *SLOController) windowP99(now time.Time) (time.Duration, int) {
	cutoff := now.Add(-c.timing.window)
	c.scratch = c.scratch[:0]
	for k := 0; k < c.count; k++ {
		s := &c.ring[(c.head+k)%maxSLOSamples]
		if s.at.After(cutoff) {
			c.scratch = append(c.scratch, s.lat)
		}
	}
	n := len(c.scratch)
	if n == 0 {
		return 0, 0
	}
	sortDurations(c.scratch)
	idx := (99*n + 99) / 100 // ceil(0.99n)
	if idx < 1 {
		idx = 1
	}
	return c.scratch[idx-1], n
}

// sortDurations is an in-place insertion-friendly sort; windows are small
// (≤ maxSLOSamples) and mostly ordered, so a shell sort beats pulling in
// sort.Slice's closure allocation on the admit path.
func sortDurations(d []time.Duration) {
	for gap := len(d) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(d); i++ {
			v := d[i]
			j := i
			for ; j >= gap && d[j-gap] > v; j -= gap {
				d[j] = d[j-gap]
			}
			d[j] = v
		}
	}
}

func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
