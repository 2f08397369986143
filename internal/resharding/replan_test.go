package resharding

import (
	"context"
	"reflect"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
)

// planEqual reports whether two plans choose the same senders in the same
// launch order — the byte-level identity the wire format serializes.
func planEqual(a, b *Plan) bool {
	return reflect.DeepEqual(a.SenderOf, b.SenderOf) && reflect.DeepEqual(a.Order, b.Order)
}

// cacheDelta is the plan-cache hits and misses a session counted since
// before.
func cacheDelta(p *Planner, before CacheStats) (hits, misses int) {
	s := p.Cache().Stats()
	return s.Hits - before.Hits, s.Misses - before.Misses
}

// freshReplan is the plan a session that has planned nothing gives task on
// the overlay fs.
func freshReplan(t *testing.T, topo mesh.Topology, task *sharding.Task, opts Options, fs mesh.FaultSet) *Plan {
	t.Helper()
	plan, _, err := NewPlanner(WithTopology(topo), WithTraceFreeSim()).ReplanDegraded(context.Background(), task, opts, fs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestReplanEmptyDeltaReturnsCachedPlan: a replan step whose fault delta
// is empty (same overlay as the cached plan) must return the cached entry
// itself — the same pointer, so provably byte-identical and search-free —
// and count as a plan-cache hit, not a fill.
func TestReplanEmptyDeltaReturnsCachedPlan(t *testing.T) {
	topo := mesh.AWSP3Cluster(2)
	task := degradedBoundary(t, topo)
	p := NewPlanner(WithTopology(topo))
	ctx := context.Background()

	healthy, _, err := p.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Cache().Stats()
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
	degAgain, _, err := p.ReplanDegraded(ctx, task, degradedTestOpts, fs)
	if err != nil {
		t.Fatal(err)
	}
	if degAgain != deg {
		t.Error("empty-delta degraded replan did not return the cached degraded plan pointer")
	}
	if hits, misses := cacheDelta(p, before); hits != 2 || misses != 1 {
		t.Errorf("cache hits, misses = %d, %d; want 2 (one empty-delta step per overlay) and 1 (the degraded overlay's first plan)", hits, misses)
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
// served request with zero dfs_nodes plans with).
func packBoundary(t *testing.T, topo mesh.Topology) *sharding.Task {
	t.Helper()
	return stageBoundary(t, topo, 0, 8, 128, 128, 8)
}

var packOpts = Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1, Chunks: 8}

// TestWarmReplanMatchesColdOnFaultScenarios runs every registry fault
// scenario as one replan step — on a small p3 boundary at a test budget and
// on the pack boundary on every preset at the serving budget — through a
// warm session, one that holds the healthy plan and every earlier
// scenario's. Each step must give the degraded overlay the plan a fresh
// session gives it, which is the cold plan of the degraded task.
func TestWarmReplanMatchesColdOnFaultScenarios(t *testing.T) {
	type input struct {
		name string
		topo mesh.Topology
		task *sharding.Task
		opts Options
	}
	p3 := mesh.AWSP3Cluster(4)
	inputs := []input{{"p3-small", p3, degradedBoundary(t, p3), degradedTestOpts}}
	for _, p := range packPresets() {
		inputs = append(inputs, input{p.name, p.topo, packBoundary(t, p.topo), packOpts})
	}
	reg := mesh.DefaultRegistry()
	ctx := context.Background()
	for _, in := range inputs {
		warm := NewPlanner(WithTopology(in.topo), WithTraceFreeSim())
		if _, _, err := warm.Plan(ctx, in.task, in.opts); err != nil {
			t.Fatal(err)
		}
		for _, scenario := range reg.FaultScenarioNames() {
			name := in.name + "/" + scenario
			fs, err := reg.BuildFaultScenario(scenario, in.topo)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			degTask, err := in.task.OnTopology(mesh.MustFaulted(in.topo, fs))
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewPlanContext(ctx, degTask, in.opts)
			if err != nil {
				t.Fatal(err)
			}
			replan, _, err := warm.ReplanDegraded(ctx, in.task, in.opts, fs)
			if err != nil {
				t.Fatal(err)
			}
			if !planEqual(replan, freshReplan(t, in.topo, in.task, in.opts, fs)) {
				t.Errorf("%s: the warm session's replan differs from a fresh session's", name)
			}
			if !planEqual(replan, cold) {
				t.Errorf("%s: the warm session's replan differs from the cold plan", name)
			}
		}
	}
}

// TestWarmReplanColdFallbacks: WarmReplanContext, which bench/'s layer
// ladder still calls, plans cold whatever it is handed — no incumbent, no
// previous overlay, a healthy incumbent, a non-ensemble scheduler — and
// reports Mode == WarmCold with a nil simulation.
func TestWarmReplanColdFallbacks(t *testing.T) {
	topo := mesh.AWSP3Cluster(4)
	task := degradedBoundary(t, topo)
	ctx := context.Background()
	fs := mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 0, NICScale: 0.5}}}
	degTask, err := task.OnTopology(mesh.MustFaulted(topo, fs))
	if err != nil {
		t.Fatal(err)
	}
	naive := degradedTestOpts
	naive.Scheduler = SchedNaive
	for _, opts := range []Options{degradedTestOpts, naive} {
		cold, err := NewPlanContext(ctx, degTask, opts)
		if err != nil {
			t.Fatal(err)
		}
		healthy, err := NewPlanContext(ctx, task, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, from := range map[string]struct {
			task      *sharding.Task
			incumbent *Plan
		}{
			"nil-incumbent": {task, nil},
			"nil-from-task": {nil, healthy},
			"healthy":       {task, healthy},
		} {
			name = opts.Scheduler.String() + "/" + name
			plan, sim, info, err := WarmReplanContext(ctx, degTask, opts, from.task, from.incumbent)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if info.Mode != WarmCold {
				t.Errorf("%s: mode %q, want %q", name, info.Mode, WarmCold)
			}
			if sim != nil {
				t.Errorf("%s: returned a simulation; the contract is nil", name)
			}
			if !planEqual(plan, cold) {
				t.Errorf("%s: plan differs from NewPlanContext", name)
			}
		}
	}
}

// TestReplanCacheAcrossChurnTimeline documents ReplanDegraded's cache-key
// behavior over successive fault deltas: each overlay partitions under its
// own key, healing back to an earlier overlay (including the healthy one)
// and revisiting a flapped overlay are cache hits on the earlier entries,
// and every step that misses plans what a fresh session plans.
func TestReplanCacheAcrossChurnTimeline(t *testing.T) {
	topo := mesh.AWSP3Cluster(4)
	task := degradedBoundary(t, topo)
	p := NewPlanner(WithTopology(topo), WithTraceFreeSim())
	ctx := context.Background()

	healthy, _, err := p.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Cache().Stats()
	linkDown := mesh.FaultSet{Links: []mesh.LinkFault{{A: 0, B: 1, Down: true}}}
	straggler := mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 1, NICScale: 0.25}}}

	// @0 link-down arrives: a new overlay, so a fill.
	down1, _, err := p.ReplanDegraded(ctx, task, degradedTestOpts, linkDown)
	if err != nil {
		t.Fatal(err)
	}
	if !planEqual(down1, freshReplan(t, topo, task, degradedTestOpts, linkDown)) {
		t.Error("link-down step differs from a fresh session's plan")
	}
	// @1 the link heals: back to the healthy overlay's own cache entry.
	healed, _, err := p.ReplanDegraded(ctx, task, degradedTestOpts, mesh.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if healed != healthy {
		t.Error("heal-back did not hit the healthy overlay's cache entry")
	}
	// @2 the link flaps down again: the overlay re-keys to the same entry
	// as step one — a hit, not a second fill.
	down2, _, err := p.ReplanDegraded(ctx, task, degradedTestOpts, linkDown)
	if err != nil {
		t.Fatal(err)
	}
	if down2 != down1 {
		t.Error("flap revisit did not hit the link-down overlay's cache entry")
	}
	// @3 a straggler instead: another new overlay, another fill.
	strag, _, err := p.ReplanDegraded(ctx, task, degradedTestOpts, straggler)
	if err != nil {
		t.Fatal(err)
	}
	if !planEqual(strag, freshReplan(t, topo, task, degradedTestOpts, straggler)) {
		t.Error("straggler step differs from a fresh session's plan")
	}
	if hits, misses := cacheDelta(p, before); hits != 2 || misses != 2 {
		t.Errorf("cache hits, misses = %d, %d; want 2 (heal-back + flap revisit) and 2 (one fill per new overlay)", hits, misses)
	}
}

// TestReplanCacheAcrossRegistryTimelines replays every registry churn
// scenario on every pack preset through a Planner session, each step a
// ReplanDegraded onto that step's overlay, exactly as the serving path
// does. Every step is one cache lookup, a hit or a miss; at least one is a
// hit (the heal-back); every step's plan is a fresh session's plan of its
// overlay; and — every registry timeline ends healed — the last step's
// makespan is the healthy one.
func TestReplanCacheAcrossRegistryTimelines(t *testing.T) {
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
			before := p.Cache().Stats()
			var plan *Plan
			var last *SimResult
			for i, step := range tl.Steps {
				if plan, last, err = p.ReplanDegraded(ctx, task, packOpts, step.Faults); err != nil {
					t.Fatalf("%s: step %d: %v", name, i, err)
				}
				if !planEqual(plan, freshReplan(t, preset.topo, task, packOpts, step.Faults)) {
					t.Errorf("%s: step %d differs from a fresh session's plan", name, i)
				}
			}
			hits, misses := cacheDelta(p, before)
			if hits+misses != len(tl.Steps) {
				t.Errorf("%s: %d hits + %d misses, want %d (one per timeline step)", name, hits, misses, len(tl.Steps))
			}
			if hits < 1 {
				t.Errorf("%s: no cache hits; the heal-back must hit", name)
			}
			if last == nil || last.Makespan != healthy.Makespan {
				t.Errorf("%s: timeline ended at %+v, want the healthy makespan %.9f", name, last, healthy.Makespan)
			}
		}
	}
}
