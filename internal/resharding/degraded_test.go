package resharding

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// degradedBoundary builds the stage boundary the degraded-planning tests
// share: (2,2)@0 -> (2,2)@4 on a 4-host p3-like cluster.
func degradedBoundary(t *testing.T, topo mesh.Topology) *sharding.Task {
	t.Helper()
	src, err := topo.Slice([]int{2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := topo.Slice([]int{2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(64, 64), tensor.Float32,
		src, sharding.MustParse("S01R"), dst, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

var degradedTestOpts = Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1, DFSNodes: 5000, Chunks: 4}

// TestReplanDegradedPartitionsCache: healthy and degraded plans of one
// boundary through one session never share a PlanCache entry, under
// concurrency — run with -race in CI.
func TestReplanDegradedPartitionsCache(t *testing.T) {
	topo := mesh.AWSP3Cluster(2)
	task := degradedBoundary(t, topo)
	fs := mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 1, NICScale: 0.5}}}
	p := NewPlanner(WithTopology(topo))
	ctx := context.Background()

	const workers = 8
	healthy := make([]*SimResult, workers)
	degraded := make([]*SimResult, workers)
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sim, err := p.Plan(ctx, task, degradedTestOpts)
			if err != nil {
				errs <- err
				return
			}
			healthy[i] = sim
			_, dsim, err := p.ReplanDegraded(ctx, task, degradedTestOpts, fs)
			if err != nil {
				errs <- err
				return
			}
			degraded[i] = dsim
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := p.Cache().Stats()
	if stats.Entries != 2 || stats.Misses != 2 {
		t.Errorf("cache entries/misses = %d/%d, want 2/2 (one healthy + one degraded class)", stats.Entries, stats.Misses)
	}
	for i := 1; i < workers; i++ {
		if healthy[i].Makespan != healthy[0].Makespan || degraded[i].Makespan != degraded[0].Makespan {
			t.Fatalf("worker %d saw different timings", i)
		}
	}
	if degraded[0].Makespan <= healthy[0].Makespan {
		t.Errorf("halving a NIC should slow the boundary: degraded %g vs healthy %g", degraded[0].Makespan, healthy[0].Makespan)
	}

	// The partition is visible in the keys themselves.
	opts := p.ResolveOptions(degradedTestOpts)
	degradedTask, err := degradeTask(task, fs)
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(task, opts) == CacheKey(degradedTask, opts) {
		t.Error("healthy and degraded boundaries share a cache key")
	}
}

// TestReplanDegradedEmptyOverlayIsIdentity: an empty FaultSet must hit
// the exact same cache entry as the healthy plan — same key, same plan,
// same simulation, no extra miss.
func TestReplanDegradedEmptyOverlayIsIdentity(t *testing.T) {
	topo := mesh.AWSP3Cluster(2)
	task := degradedBoundary(t, topo)
	p := NewPlanner(WithTopology(topo))
	ctx := context.Background()

	plan, sim, err := p.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	rplan, rsim, err := p.ReplanDegraded(ctx, task, degradedTestOpts, mesh.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if plan != rplan || sim != rsim {
		t.Error("empty overlay did not share the healthy cache entry")
	}
	if stats := p.Cache().Stats(); stats.Misses != 1 {
		t.Errorf("misses = %d, want 1", stats.Misses)
	}
}

// TestWithFaultsSession: a session constructed with WithFaults plans
// every task against the overlay — same result as ReplanDegraded on a
// healthy session, and cache-partitioned from healthy plans sharing the
// same cache.
func TestWithFaultsSession(t *testing.T) {
	topo := mesh.AWSP3Cluster(2)
	task := degradedBoundary(t, topo)
	fs := mesh.FaultSet{Links: []mesh.LinkFault{{A: 0, B: 1, BandwidthScale: 0.5}}}
	cache := NewPlanCache()
	ctx := context.Background()

	healthySession := NewPlanner(WithTopology(topo), WithCache(cache))
	faultySession := NewPlanner(WithTopology(topo), WithCache(cache), WithFaults(fs))

	_, hsim, err := healthySession.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, fsim, err := faultySession.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, rsim, err := healthySession.ReplanDegraded(ctx, task, degradedTestOpts, fs)
	if err != nil {
		t.Fatal(err)
	}
	if fsim.Makespan != rsim.Makespan {
		t.Errorf("WithFaults session and ReplanDegraded disagree: %g vs %g", fsim.Makespan, rsim.Makespan)
	}
	if fsim.Makespan <= hsim.Makespan {
		t.Errorf("halved link should slow the boundary: %g vs %g", fsim.Makespan, hsim.Makespan)
	}
	// Healthy plan + one degraded class in the shared cache; the
	// ReplanDegraded call hit the faulty session's entry.
	if stats := cache.Stats(); stats.Misses != 2 || stats.Hits < 1 {
		t.Errorf("shared cache stats = %+v, want 2 misses and a degraded hit", stats)
	}

	// The faulted autotune path degrades too: the winner's timing must
	// never beat the healthy winner on a bandwidth-only overlay.
	hres, err := healthySession.Autotune(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := faultySession.Autotune(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fres.BestSim.Makespan < hres.BestSim.Makespan {
		t.Errorf("degraded autotune winner %g beats healthy %g", fres.BestSim.Makespan, hres.BestSim.Makespan)
	}
}

// TestReplanDegradedRejectsBadOverlay: overlay validation surfaces as a
// plan-time error, not a panic.
func TestReplanDegradedRejectsBadOverlay(t *testing.T) {
	topo := mesh.AWSP3Cluster(2)
	task := degradedBoundary(t, topo)
	p := NewPlanner(WithTopology(topo))
	if _, _, err := p.ReplanDegraded(context.Background(), task, degradedTestOpts,
		mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 99, NICScale: 0.5}}}); err == nil {
		t.Error("out-of-range host fault must fail")
	}
	if _, _, err := p.ReplanDegraded(context.Background(), task, degradedTestOpts,
		mesh.FaultSet{Links: []mesh.LinkFault{{A: 0, B: 1, Down: true}}}); err == nil {
		t.Error("down link with no detour must fail")
	}
}

// TestCacheKeyNeverCollidesAcrossTopologies is the audit table test:
// congruent boundaries on hardware whose differences are observable by
// the involved hosts — per-host bandwidths and latencies, NIC overrides,
// fabric oversubscription, every fault-overlay shape — must never map to
// one cache key (and hence never share a PlanCache entry). The boundary
// spans hosts 0-1, so every variant differs there.
func TestCacheKeyNeverCollidesAcrossTopologies(t *testing.T) {
	hosts := func(n int, spec mesh.HostSpec) []mesh.HostSpec {
		out := make([]mesh.HostSpec, n)
		for i := range out {
			out[i] = spec
		}
		return out
	}
	p3spec := mesh.P3HostSpec()
	variant := func(mutate func(*mesh.HostSpec)) []mesh.HostSpec {
		specs := hosts(4, p3spec)
		mutate(&specs[0])
		return specs
	}

	base4 := mesh.AWSP3Cluster(4)
	variants := []struct {
		name string
		topo mesh.Topology
	}{
		{"p3-4", base4},
		{"p3-4-2nics", withNICs(base4, 2)},
		{"p3-4-4nics", withNICs(base4, 4)},
		{"hetero-oversub-1.5", mesh.MustHeteroCluster(hosts(4, p3spec), mesh.P3InterHostLatency, 1.5)},
		{"hetero-oversub-2", mesh.MustHeteroCluster(hosts(4, p3spec), mesh.P3InterHostLatency, 2)},
		{"hetero-slow-nic", mesh.MustHeteroCluster(variant(func(s *mesh.HostSpec) { s.NICBandwidth /= 2 }), mesh.P3InterHostLatency, 1)},
		{"hetero-slow-intra", mesh.MustHeteroCluster(variant(func(s *mesh.HostSpec) { s.IntraBandwidth /= 2 }), mesh.P3InterHostLatency, 1)},
		{"hetero-multi-nic", mesh.MustHeteroCluster(variant(func(s *mesh.HostSpec) { s.NICs = 2 }), mesh.P3InterHostLatency, 1)},
		{"hetero-lag-intra", mesh.MustHeteroCluster(variant(func(s *mesh.HostSpec) { s.IntraLatency *= 2 }), mesh.P3InterHostLatency, 1)},
		{"hetero-fat-host", mesh.MustHeteroCluster(variant(func(s *mesh.HostSpec) { s.Devices = 8 }), mesh.P3InterHostLatency, 1)},
		{"hetero-inter-lat", mesh.MustHeteroCluster(hosts(4, p3spec), 3*mesh.P3InterHostLatency, 1)},
		{"mixed-1p3-3dgx", mesh.MixedP3DGXCluster(1, 3, 1)},
		{"faulted-straggler", mesh.MustFaulted(base4, mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 1, NICScale: 0.5}}})},
		{"faulted-straggler-deeper", mesh.MustFaulted(base4, mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 1, NICScale: 0.25}}})},
		{"faulted-intra", mesh.MustFaulted(base4, mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 0, IntraScale: 0.25}}})},
		{"faulted-link-scale", mesh.MustFaulted(base4, mesh.FaultSet{Links: []mesh.LinkFault{{A: 0, B: 1, BandwidthScale: 0.4}}})},
		{"faulted-link-lat", mesh.MustFaulted(base4, mesh.FaultSet{Links: []mesh.LinkFault{{A: 0, B: 1, ExtraLatency: 10e-6}}})},
		{"faulted-link-down", mesh.MustFaulted(base4, mesh.FaultSet{Links: []mesh.LinkFault{{A: 0, B: 1, Down: true}}})},
	}

	opts := Options{Seed: 1, DFSNodes: 1000}.WithDefaults()
	keys := map[string]string{}
	prints := map[string]string{}
	for _, v := range variants {
		task := degradedBoundary(t, v.topo)
		key := CacheKey(task, opts)
		if prev, ok := keys[key]; ok {
			t.Errorf("cache key collision: %s and %s share %q", prev, v.name, key)
		}
		keys[key] = v.name
		fp := v.topo.Fingerprint()
		if prev, ok := prints[fp]; ok {
			t.Errorf("fingerprint collision: %s and %s share %q", prev, v.name, fp)
		}
		prints[fp] = v.name
	}

	// The flip side of the audit — the key is canonical over OBSERVABLE
	// hardware, not instances or implementations:
	// identical hardware built twice shares one key;
	a := degradedBoundary(t, mesh.AWSP3Cluster(4))
	b := degradedBoundary(t, mesh.AWSP3Cluster(4))
	if CacheKey(a, opts) != CacheKey(b, opts) {
		t.Error("identical hardware built twice must share one cache key")
	}
	// uniform p3 specs assembled by hand are the p3 preset: one key and
	// one fingerprint;
	uniform := mesh.MustHeteroCluster(hosts(4, p3spec), mesh.P3InterHostLatency, 1)
	if CacheKey(degradedBoundary(t, uniform), opts) != CacheKey(a, opts) {
		t.Error("observably identical hardware should share one cache key")
	}
	if uniform.Fingerprint() != base4.Fingerprint() {
		t.Errorf("hand-built p3 hosts fingerprint %q, want the preset's %q", uniform.Fingerprint(), base4.Fingerprint())
	}
	// and a fault on a host the boundary never touches leaves the
	// boundary's key alone — the plan really is identical there.
	idle := mesh.MustFaulted(base4, mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 3, NICScale: 0.5}}})
	if CacheKey(degradedBoundary(t, idle), opts) != CacheKey(a, opts) {
		t.Error("fault on an uninvolved host must not re-key the boundary")
	}
	if idle.Fingerprint() == base4.Fingerprint() {
		t.Error("the faulted topology's own fingerprint must still differ")
	}
}

// TestDegradedPlanDeterministic: planning the same boundary under the
// same overlay twice yields byte-identical plans and timings.
func TestDegradedPlanDeterministic(t *testing.T) {
	topo := mesh.MixedP3DGXCluster(2, 2, 1.5)
	fs := mesh.FaultSet{
		Links: []mesh.LinkFault{{A: 0, B: 2, BandwidthScale: 0.5, ExtraLatency: 5e-6}},
		Hosts: []mesh.HostFault{{Host: 3, NICScale: 0.5, IntraScale: 0.5}},
	}
	task := degradedBoundary(t, topo)
	run := func() (*Plan, *SimResult) {
		dt, err := degradeTask(task, fs)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(dt, degradedTestOpts)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := plan.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		return plan, sim
	}
	p1, s1 := run()
	p2, s2 := run()
	if !reflect.DeepEqual(p1.SenderOf, p2.SenderOf) || !reflect.DeepEqual(p1.Order, p2.Order) {
		t.Error("degraded plan is not deterministic")
	}
	if s1.Makespan != s2.Makespan || fmt.Sprint(s1.Events) != fmt.Sprint(s2.Events) {
		t.Error("degraded simulation is not deterministic")
	}
}

// TestPlanKeyedHonorsSessionFaults: PlanKeyed on a WithFaults session
// rebinds the task to the overlay and recomputes the key, so a healthy
// key handed to a degraded session can never alias (or poison) the
// healthy cache entry. TaskKey exposes the key such a call plans under.
func TestPlanKeyedHonorsSessionFaults(t *testing.T) {
	topo := mesh.AWSP3Cluster(2)
	task := degradedBoundary(t, topo)
	fs := mesh.FaultSet{Hosts: []mesh.HostFault{{Host: 1, NICScale: 0.5}}}
	cache := NewPlanCache()
	healthySession := NewPlanner(WithTopology(topo), WithCache(cache))
	faultySession := NewPlanner(WithTopology(topo), WithCache(cache), WithFaults(fs))
	ctx := context.Background()

	opts := healthySession.ResolveOptions(degradedTestOpts)
	healthyKey, _, err := healthySession.TaskKey(task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if healthyKey != CacheKey(task, opts) {
		t.Fatal("healthy session's TaskKey must be the plain canonical key")
	}
	faultyKey, degradedTask, err := faultySession.TaskKey(task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if faultyKey == healthyKey {
		t.Fatal("faulted session's TaskKey must differ from the healthy key")
	}
	if mesh.SameTopology(degradedTask.Src.Mesh.Topo, topo) {
		t.Fatal("TaskKey must return the task rebound to the overlay")
	}

	// Handing the HEALTHY key to the degraded session must still plan
	// degraded — and leave the healthy entry untouched.
	_, fsim, err := faultySession.PlanKeyed(ctx, healthyKey, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, hsim, err := healthySession.PlanKeyed(ctx, healthyKey, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fsim.Makespan <= hsim.Makespan {
		t.Errorf("degraded PlanKeyed makespan %g does not exceed healthy %g", fsim.Makespan, hsim.Makespan)
	}
	if stats := cache.Stats(); stats.Entries != 2 || stats.Misses != 2 {
		t.Errorf("shared cache stats = %+v, want exactly one healthy and one degraded entry", stats)
	}
	// And PlanKeyed agrees with Plan on the faulted session (cache hit).
	_, fsim2, err := faultySession.Plan(ctx, task, degradedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fsim2 != fsim {
		t.Error("faulted Plan and PlanKeyed did not share the degraded entry")
	}
}
