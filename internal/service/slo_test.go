package service

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// The admission controller is exercised entirely on a synthetic clock: no
// sleeps, no wall time. Every test scripts a latency trace, advances the
// clock explicitly, and asserts the exact transition sequence — which is
// only possible because the controller's decisions are a pure function of
// (config, samples, clock).

// fakeClock is the injected clock of the deterministic tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(0, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// sloTestConfig is a controller test's settings: the budget, the timing
// the package tests shorten, and the plan pool's capacity.
type sloTestConfig struct {
	budget time.Duration
	sloTiming
	poolCap int
}

// controller builds the configured controller on the given clock.
func (c sloTestConfig) controller(now func() time.Time) *SLOController {
	return newSLOController(SLOConfig{P99Budget: c.budget}, c.poolCap, c.sloTiming, now)
}

// testSLOConfig is the base config of the controller tests: thresholds at
// 75/100/50ms of a 100ms budget, a 150ms window, a 100ms dwell,
// evaluation on every Admit, and a pool of 8 tokens.
func testSLOConfig() sloTestConfig {
	return sloTestConfig{
		budget:    100 * time.Millisecond,
		sloTiming: sloTiming{window: 150 * time.Millisecond, minSamples: 4, dwell: 100 * time.Millisecond, evalEvery: -1},
		poolCap:   8,
	}
}

func observeN(ctl *SLOController, n int, lat time.Duration) {
	for i := 0; i < n; i++ {
		ctl.Observe(lat)
	}
}

// TestSLOTransitionSequence replays a scripted latency trace and asserts
// the exact degrade→shed→recover sequence, timestamps included.
func TestSLOTransitionSequence(t *testing.T) {
	clk := newFakeClock()
	ctl := testSLOConfig().controller(clk.now)

	// Healthy baseline: p99 10ms, mode full.
	observeN(ctl, 4, 10*time.Millisecond)
	if mode := ctl.Admit(0); mode != AdmitFull {
		t.Fatalf("healthy mode = %v, want full", mode)
	}

	// p99 jumps to 80ms ≥ 0.75·budget: degrade.
	clk.advance(10 * time.Millisecond)
	observeN(ctl, 10, 80*time.Millisecond)
	if mode := ctl.Admit(0); mode != AdmitDegraded {
		t.Fatalf("after 80ms trace mode = %v, want degraded", mode)
	}

	// p99 blows through the budget: shed.
	clk.advance(10 * time.Millisecond)
	observeN(ctl, 10, 130*time.Millisecond)
	if mode := ctl.Admit(0); mode != AdmitShed {
		t.Fatalf("after 130ms trace mode = %v, want shed", mode)
	}

	// The slow samples age out of the window and fresh ones are fast:
	// recover one level (shed→degraded) once the dwell has passed.
	clk.advance(180 * time.Millisecond) // t = 200ms
	observeN(ctl, 20, 10*time.Millisecond)
	if mode := ctl.Admit(0); mode != AdmitDegraded {
		t.Fatalf("after recovery trace mode = %v, want degraded", mode)
	}

	// Still fast after another dwell: full recovery.
	clk.advance(140 * time.Millisecond) // t = 340ms
	observeN(ctl, 20, 10*time.Millisecond)
	clk.advance(10 * time.Millisecond) // t = 350ms
	if mode := ctl.Admit(0); mode != AdmitFull {
		t.Fatalf("after second recovery trace mode = %v, want full", mode)
	}

	want := []string{
		"full→degraded@10ms",
		"degraded→shed@20ms",
		"shed→degraded@200ms",
		"degraded→full@350ms",
	}
	if got := ctl.Snapshot().Transitions; !reflect.DeepEqual(got, want) {
		t.Fatalf("transition log = %v, want %v", got, want)
	}
	st := ctl.Snapshot()
	if st.Degrades != 1 || st.Sheds != 1 || st.Recoveries != 2 {
		t.Fatalf("counters = %d/%d/%d degrades/sheds/recoveries, want 1/1/2", st.Degrades, st.Sheds, st.Recoveries)
	}
}

// TestSLOHysteresisNoFlap pins the hysteresis band: a p99 hovering just
// below the degrade threshold never degrades, one at the threshold
// degrades exactly once, and a p99 inside the (sloRecoverAt, sloDegradeAt) band
// holds the degraded state through many evaluations — no flapping.
func TestSLOHysteresisNoFlap(t *testing.T) {
	cfg := testSLOConfig()
	cfg.window = time.Second
	clk := newFakeClock()
	ctl := cfg.controller(clk.now)

	// Just under the threshold: 74ms < 75ms, stays full however often the
	// controller evaluates.
	observeN(ctl, 20, 74*time.Millisecond)
	for i := 0; i < 50; i++ {
		if mode := ctl.Admit(0); mode != AdmitFull {
			t.Fatalf("eval %d: mode = %v below threshold, want full", i, mode)
		}
	}

	// At the threshold: degrade, exactly once.
	clk.advance(time.Millisecond)
	observeN(ctl, 20, 76*time.Millisecond)
	if mode := ctl.Admit(0); mode != AdmitDegraded {
		t.Fatalf("mode = %v at threshold, want degraded", mode)
	}

	// Inside the hysteresis band (50ms ≤ 60ms < 75ms): neither recovers
	// nor escalates, no matter how long it dwells there.
	clk.advance(1200 * time.Millisecond) // old samples age out
	observeN(ctl, 20, 60*time.Millisecond)
	for i := 0; i < 50; i++ {
		clk.advance(10 * time.Millisecond)
		observeN(ctl, 1, 60*time.Millisecond)
		if mode := ctl.Admit(0); mode != AdmitDegraded {
			t.Fatalf("eval %d: mode = %v inside band, want degraded", i, mode)
		}
	}

	// Below the recovery threshold: full again.
	clk.advance(1200 * time.Millisecond)
	observeN(ctl, 20, 40*time.Millisecond)
	if mode := ctl.Admit(0); mode != AdmitFull {
		t.Fatalf("mode = %v below recovery threshold, want full", mode)
	}

	if got := len(ctl.Snapshot().Transitions); got != 2 {
		t.Fatalf("transitions = %v, want exactly degrade + recover", ctl.Snapshot().Transitions)
	}
}

// TestSLODwellBlocksRecovery pins the dwell: even with a perfectly healthy
// window, the controller refuses to de-escalate until it has resided in
// the degraded state for Dwell.
func TestSLODwellBlocksRecovery(t *testing.T) {
	cfg := testSLOConfig()
	cfg.window = 30 * time.Millisecond
	clk := newFakeClock()
	ctl := cfg.controller(clk.now)

	observeN(ctl, 10, 200*time.Millisecond)
	if mode := ctl.Admit(0); mode != AdmitDegraded {
		t.Fatalf("mode = %v, want degraded", mode)
	}

	clk.advance(25 * time.Millisecond)
	observeN(ctl, 20, 10*time.Millisecond)
	clk.advance(25 * time.Millisecond) // t = 50ms: healthy window, dwell not met
	if mode := ctl.Admit(0); mode != AdmitDegraded {
		t.Fatalf("mode = %v before dwell, want degraded", mode)
	}

	clk.advance(100 * time.Millisecond) // t = 150ms: dwell met
	if mode := ctl.Admit(0); mode != AdmitFull {
		t.Fatalf("mode = %v after dwell, want full", mode)
	}
}

// TestSLOQueueDepthEscalates pins the occupancy trigger: a full plan pool
// degrades before any latency sample exists, no occupancy sheds (a full
// pool refuses the miss itself), and recovery needs both the dwell and a
// pool below capacity.
func TestSLOQueueDepthEscalates(t *testing.T) {
	cfg := testSLOConfig()
	clk := newFakeClock()
	ctl := cfg.controller(clk.now)

	if mode := ctl.Admit(cfg.poolCap - 1); mode != AdmitFull {
		t.Fatalf("Admit(cap-1) = %v, want full", mode)
	}
	if mode := ctl.Admit(cfg.poolCap); mode != AdmitDegraded {
		t.Fatalf("Admit(cap) = %v, want degraded", mode)
	}
	for _, occ := range []int{cfg.poolCap, 4 * cfg.poolCap, 1 << 20} {
		if mode := ctl.Admit(occ); mode != AdmitDegraded {
			t.Fatalf("Admit(%d) = %v, want degraded: occupancy never sheds", occ, mode)
		}
	}

	// Before the dwell, a drained pool does not recover.
	clk.advance(cfg.dwell / 2)
	if mode := ctl.Admit(0); mode != AdmitDegraded {
		t.Fatalf("drained Admit(0) before the dwell = %v, want degraded", mode)
	}
	// After it, a pool still at capacity does not either...
	clk.advance(cfg.dwell)
	if mode := ctl.Admit(cfg.poolCap); mode != AdmitDegraded {
		t.Fatalf("Admit(cap) after the dwell = %v, want degraded", mode)
	}
	// ...and one below capacity does.
	if mode := ctl.Admit(cfg.poolCap - 1); mode != AdmitFull {
		t.Fatalf("Admit(cap-1) after the dwell = %v, want full", mode)
	}
	want := []string{"full→degraded@0ms", "degraded→full@150ms"}
	if got := ctl.Snapshot().Transitions; !reflect.DeepEqual(got, want) {
		t.Fatalf("transition log = %v, want %v", got, want)
	}
}

// TestNewSLOControllerDegradesAtDefaultPool: a controller built outside a
// server degrades at the capacity of the plan pool a zero Config gets.
func TestNewSLOControllerDegradesAtDefaultPool(t *testing.T) {
	defaultCap := cap(New(Config{}).plan.queue)
	ctl := NewSLOController(SLOConfig{P99Budget: time.Hour}, newFakeClock().now)
	if mode := ctl.Admit(defaultCap - 1); mode != AdmitFull {
		t.Fatalf("Admit(%d) = %v, want full", defaultCap-1, mode)
	}
	if mode := ctl.Admit(defaultCap); mode != AdmitDegraded {
		t.Fatalf("Admit(%d) = %v, want degraded", defaultCap, mode)
	}
}
