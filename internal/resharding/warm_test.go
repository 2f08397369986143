package resharding

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
)

// planEqual reports whether two plans choose the same senders in the same
// launch order — the byte-level identity the wire format serializes.
func planEqual(a, b *Plan) bool {
	return reflect.DeepEqual(a.SenderOf, b.SenderOf) && reflect.DeepEqual(a.Order, b.Order)
}

// TestReplanEmptyDeltaReturnsCachedPlan: a replan step whose fault delta
// is empty (same overlay as the cached plan) must return the cached entry
// itself — the same pointer, so provably byte-identical and search-free —
// and count as a cache hit, not a warm or cold fill.
func TestReplanEmptyDeltaReturnsCachedPlan(t *testing.T) {
	topo := mesh.AWSP3Cluster(2)
	task := degradedBoundary(t, topo)
	p := NewPlanner(WithTopology(topo))
	ctx := context.Background()

	healthy, _, err := p.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := p.ReplanDegraded(ctx, task, degradedTestOpts, mesh.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if again != healthy {
		t.Error("empty-delta replan did not return the cached healthy plan pointer")
	}
	fs := mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 1, NICScale: 0.5}}}
	deg, _, err := p.ReplanDegraded(ctx, task, degradedTestOpts, fs)
	if err != nil {
		t.Fatal(err)
	}
	degAgain, _, err := p.ReplanDegradedFrom(ctx, task, degradedTestOpts, fs, fs)
	if err != nil {
		t.Fatal(err)
	}
	if degAgain != deg {
		t.Error("empty-delta degraded replan did not return the cached degraded plan pointer")
	}
	stats := p.ReplanStats()
	if stats.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2 (one empty-delta step per overlay)", stats.CacheHits)
	}
	if stats.Cold != 0 {
		t.Errorf("cold replans = %d, want 0", stats.Cold)
	}
}

// packPresets are the three registry presets of the degraded scenario pack
// (internal/harness), host counts chosen so every fault and churn scenario
// is valid on each (link-down needs a detour host).
type packPreset struct {
	name string
	topo mesh.Topology
}

func packPresets() []packPreset {
	return []packPreset{
		{"p3", mesh.AWSP3Cluster(4)},
		{"dgx-a100", mesh.DGXA100Cluster(3)},
		{"mixed", mesh.MixedP3DGXCluster(2, 2, 2)},
	}
}

// packBoundary is that pack's golden stage boundary on topo, and packOpts
// its configuration at the default node budget (DefaultDFSNodes, what a
// served request with zero dfs_nodes plans with): the cold side of a
// warm-vs-cold comparison must pay what the serving daemon's cold path
// pays.
func packBoundary(t *testing.T, topo mesh.Topology) *sharding.Task {
	t.Helper()
	return stageBoundary(t, topo, 0, 8, 128, 128, 8)
}

var packOpts = Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1, Chunks: 8}

// minWarmSpeedup is the floor on cold-over-warm replan time for a link-down
// fault: an identity replan does no search, so it may never cost noticeably
// more than planning afresh. It is not asked to be several times faster: a
// cold replan whose first candidate schedule is proven optimal skips the
// search too, and then both cost about the same. Below 1 leaves room for
// timer noise.
const minWarmSpeedup = 0.67

// fastest returns the shortest of n timed calls of f.
func fastest(n int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestWarmReplanMatchesColdOnFaultScenarios runs every registry fault
// scenario as one replan step — on a small p3 boundary at a test budget and
// on the pack boundary on every preset at the serving budget — and holds the
// replan to the cold plan of the same degraded task in every mode, with no
// simulation returned. Link-only overlays (which never change the host-level
// instance) must replan in identity mode, host overlays that move a unit in
// search mode, and a link-down replan must not be slower than the cold one
// beyond minWarmSpeedup.
func TestWarmReplanMatchesColdOnFaultScenarios(t *testing.T) {
	type input struct {
		name string
		topo mesh.Topology
		task *sharding.Task
		opts Options
		// timed inputs also hold the link-down replan to minWarmSpeedup; the
		// small boundary plans in under 2µs either way, too short to compare.
		timed bool
	}
	p3 := mesh.AWSP3Cluster(4)
	inputs := []input{{"p3-small", p3, degradedBoundary(t, p3), degradedTestOpts, false}}
	for _, p := range packPresets() {
		inputs = append(inputs, input{p.name, p.topo, packBoundary(t, p.topo), packOpts, true})
	}
	reg := mesh.DefaultRegistry()
	ctx := context.Background()
	for _, in := range inputs {
		task, opts := in.task, in.opts
		healthy, err := NewPlanContext(ctx, task, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, scenario := range reg.FaultScenarioNames() {
			name := in.name + "/" + scenario
			fs, err := reg.BuildFaultScenario(scenario, in.topo)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			degTask, err := task.OnTopology(mesh.MustFaulted(in.topo, fs))
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewPlanContext(ctx, degTask, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, warmSim, info, err := WarmReplanContext(ctx, degTask, opts, task, healthy)
			if err != nil {
				t.Fatal(err)
			}
			if !planEqual(warm, cold) {
				t.Errorf("%s: %s-mode replan differs from the cold plan", name, info.Mode)
			}
			if warmSim != nil {
				t.Errorf("%s: %s mode returned a simulation; the contract is nil", name, info.Mode)
			}
			if len(fs.Hosts) == 0 && info.Mode != WarmIdentity {
				t.Errorf("%s: a link-only overlay replanned in %s mode, want %s", name, info.Mode, WarmIdentity)
			}
			switch info.Mode {
			case WarmIdentity:
				if info.ImpactedUnits != 0 {
					t.Errorf("%s: identity mode with %d impacted units", name, info.ImpactedUnits)
				}
			case WarmSearch:
				if info.ImpactedUnits == 0 {
					t.Errorf("%s: search mode with no impacted units", name)
				}
			default:
				t.Errorf("%s: unexpected warm mode %q", name, info.Mode)
			}

			// The one wall-clock check: alternating best-of-8 rounds, so a
			// slow stretch of the box lands on both sides.
			if !in.timed || scenario != mesh.FaultLinkDown || raceEnabled || testing.Short() {
				continue
			}
			coldBest, warmBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for round := 0; round < 4; round++ {
				coldBest = min(coldBest, fastest(8, func() {
					if _, err := NewPlanContext(ctx, degTask, opts); err != nil {
						t.Fatal(err)
					}
				}))
				warmBest = min(warmBest, fastest(8, func() {
					if _, _, _, err := WarmReplanContext(ctx, degTask, opts, task, healthy); err != nil {
						t.Fatal(err)
					}
				}))
			}
			speedup := float64(coldBest) / float64(warmBest)
			t.Logf("%s: warm replan at %.2fx the speed of cold (%v vs %v)", name, speedup, warmBest, coldBest)
			if speedup < minWarmSpeedup {
				t.Errorf("%s: warm replan at %.2fx the speed of cold, floor %.2fx", name, speedup, minWarmSpeedup)
			}
		}
	}
}

// TestWarmReplanColdFallbacks: every path without a usable incumbent must
// fall back to a plan bit-identical to cold planning, reported as
// Mode == WarmCold with a nil simulation.
func TestWarmReplanColdFallbacks(t *testing.T) {
	topo := mesh.AWSP3Cluster(4)
	task := degradedBoundary(t, topo)
	ctx := context.Background()
	fs := mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 0, NICScale: 0.5}}}
	degTask, err := task.OnTopology(mesh.MustFaulted(topo, fs))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewPlanContext(ctx, degTask, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := NewPlanContext(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	naive := degradedTestOpts
	naive.Scheduler = SchedNaive
	for name, call := range map[string]func() (*Plan, *SimResult, WarmInfo, error){
		"nil-incumbent": func() (*Plan, *SimResult, WarmInfo, error) {
			return WarmReplanContext(ctx, degTask, degradedTestOpts, task, nil)
		},
		"nil-from-task": func() (*Plan, *SimResult, WarmInfo, error) {
			return WarmReplanContext(ctx, degTask, degradedTestOpts, nil, healthy)
		},
	} {
		plan, sim, info, err := call()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Mode != WarmCold {
			t.Errorf("%s: mode %q, want %q", name, info.Mode, WarmCold)
		}
		if sim != nil {
			t.Errorf("%s: cold fallback returned a simulation; the contract is nil", name)
		}
		if !planEqual(plan, cold) {
			t.Errorf("%s: cold-fallback plan differs from NewPlanContext", name)
		}
	}
	// A non-ensemble scheduler replans cold in closed form — no warming.
	naiveCold, err := NewPlanContext(ctx, degTask, naive)
	if err != nil {
		t.Fatal(err)
	}
	naiveHealthy, err := NewPlanContext(ctx, task, naive)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, info, err := WarmReplanContext(ctx, degTask, naive, task, naiveHealthy)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != WarmCold || !planEqual(plan, naiveCold) {
		t.Errorf("naive scheduler: mode %q (want cold fallback identical to NewPlanContext)", info.Mode)
	}
}

// TestReplanStatsAcrossChurnTimeline documents ReplanDegradedFrom's
// cache-key behavior over successive fault deltas: each overlay partitions
// under its own key, healing back to an earlier overlay (including the
// healthy one) is a cache hit on that earlier entry, and a session that
// already holds the previous step's plan never replans cold.
func TestReplanStatsAcrossChurnTimeline(t *testing.T) {
	topo := mesh.AWSP3Cluster(4)
	task := degradedBoundary(t, topo)
	p := NewPlanner(WithTopology(topo), WithTraceFreeSim())
	ctx := context.Background()

	healthy, _, err := p.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	linkDown := mesh.FaultSet{Links: []mesh.LinkFault{{A: 0, B: 1, Down: true}}}
	straggler := mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 1, NICScale: 0.25}}}

	// @0 link-down arrives: warm identity (link faults never change the
	// host-level instance).
	down1, _, err := p.ReplanDegradedFrom(ctx, task, degradedTestOpts, mesh.FaultSet{}, linkDown)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.ReplanStats(); s.WarmIdentity != 1 || s.Cold != 0 {
		t.Fatalf("after link-down: %+v, want 1 warm identity and no cold", s)
	}
	// @1 the link heals: back to the healthy overlay's own cache entry.
	healed, _, err := p.ReplanDegradedFrom(ctx, task, degradedTestOpts, linkDown, mesh.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if healed != healthy {
		t.Error("heal-back did not hit the healthy overlay's cache entry")
	}
	// @2 the link flaps down again: the overlay re-keys to the same entry
	// as step one — a hit, not a second fill.
	down2, _, err := p.ReplanDegradedFrom(ctx, task, degradedTestOpts, mesh.FaultSet{}, linkDown)
	if err != nil {
		t.Fatal(err)
	}
	if down2 != down1 {
		t.Error("flap revisit did not hit the link-down overlay's cache entry")
	}
	// @3 a straggler instead: the host instance changes, so the cold
	// ensemble serves the step, counted as a search.
	if _, _, err := p.ReplanDegradedFrom(ctx, task, degradedTestOpts, mesh.FaultSet{}, straggler); err != nil {
		t.Fatal(err)
	}
	s := p.ReplanStats()
	if s.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2 (heal-back + flap revisit)", s.CacheHits)
	}
	if s.WarmSearch != 1 || s.WarmRejected != 0 {
		t.Errorf("warm search = %d, rejected = %d, want 1 (the straggler step) and 0", s.WarmSearch, s.WarmRejected)
	}
	if s.Cold != 0 {
		t.Errorf("cold replans = %d, want 0 (every step had an incumbent)", s.Cold)
	}
	if got := s.CacheHits + s.WarmIdentity + s.WarmSearch + s.WarmRejected + s.WarmInvalid + s.Cold; got != 4 {
		t.Errorf("counters sum to %d, want 4 (one per timeline step)", got)
	}

	// A fresh session with no cached incumbent replans the same overlay
	// cold — and says so.
	cold := NewPlanner(WithTopology(topo), WithTraceFreeSim())
	if _, _, err := cold.ReplanDegraded(ctx, task, degradedTestOpts, linkDown); err != nil {
		t.Fatal(err)
	}
	if s := cold.ReplanStats(); s.Cold != 1 || s.WarmIdentity != 0 {
		t.Errorf("fresh session: %+v, want exactly one cold replan", s)
	}
}

// TestReplanStatsAcrossRegistryTimelines replays every registry churn
// scenario on every pack preset through a Planner session, each step a
// ReplanDegradedFrom(previous overlay -> this overlay) exactly as the
// serving path does, and holds the accounting above on all of them: every
// step is served by exactly one counter, none cold (the healthy plan is
// cached before the first fault arrives), at least one from the cache (the
// heal-back), and — every registry timeline ends healed — the last step's
// makespan is the healthy one, so a preset's timelines all agree on it.
func TestReplanStatsAcrossRegistryTimelines(t *testing.T) {
	reg := mesh.DefaultRegistry()
	ctx := context.Background()
	for _, preset := range packPresets() {
		task := packBoundary(t, preset.topo)
		for _, scenario := range reg.ChurnScenarioNames() {
			name := preset.name + "/" + scenario
			tl, err := reg.BuildChurnScenario(scenario, preset.topo)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p := NewPlanner(WithTopology(preset.topo), WithTraceFreeSim())
			_, healthy, err := p.Plan(ctx, task, packOpts)
			if err != nil {
				t.Fatal(err)
			}
			var last *SimResult
			prev := mesh.FaultSet{}
			for i, step := range tl.Steps {
				if _, last, err = p.ReplanDegradedFrom(ctx, task, packOpts, prev, step.Faults); err != nil {
					t.Fatalf("%s: step %d: %v", name, i, err)
				}
				prev = step.Faults
			}
			s := p.ReplanStats()
			if served := s.CacheHits + s.WarmIdentity + s.WarmSearch + s.WarmRejected + s.WarmInvalid + s.Cold; served != int64(len(tl.Steps)) {
				t.Errorf("%s: counters %+v sum to %d, want %d (one per timeline step)", name, s, served, len(tl.Steps))
			}
			if s.CacheHits < 1 {
				t.Errorf("%s: no cache hits; the heal-back must hit", name)
			}
			if s.Cold != 0 {
				t.Errorf("%s: %d cold replans; every step has an incumbent", name, s.Cold)
			}
			if last == nil || last.Makespan != healthy.Makespan {
				t.Errorf("%s: timeline ended at %+v, want the healthy makespan %.9f", name, last, healthy.Makespan)
			}
		}
	}
}
