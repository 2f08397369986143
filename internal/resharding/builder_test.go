package resharding

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// stageBoundary builds the (2,4) -> (2,4) RS01R -> S01RR stage boundary —
// several unit tasks across hosts — over a tensor of the given shape.
func stageBoundary(t *testing.T, c mesh.Topology, srcFirst, dstFirst int, dims ...int) *sharding.Task {
	t.Helper()
	src, err := c.Slice([]int{2, 4}, srcFirst)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Slice([]int{2, 4}, dstFirst)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(dims...), tensor.Float32,
		src, sharding.MustParse("RS01R"), dst, sharding.MustParse("S01RR"))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// builderTask is the stage boundary at the size the pooled builder replays.
func builderTask(t *testing.T, c mesh.Topology, srcFirst, dstFirst int) *sharding.Task {
	t.Helper()
	return stageBoundary(t, c, srcFirst, dstFirst, 64, 64, 8)
}

func assertSameSim(t *testing.T, name string, got, want *SimResult) {
	t.Helper()
	if got.Makespan != want.Makespan || got.NumOps != want.NumOps || got.EffectiveGbps != want.EffectiveGbps {
		t.Fatalf("%s: makespan/ops/gbps = %v/%d/%v, want %v/%d/%v",
			name, got.Makespan, got.NumOps, got.EffectiveGbps, want.Makespan, want.NumOps, want.EffectiveGbps)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: event timeline differs from baseline", name)
	}
	if !reflect.DeepEqual(got.Utilization, want.Utilization) {
		t.Fatalf("%s: utilization differs from baseline", name)
	}
}

// TestSimulateConcurrentPooledReuse hammers Plan.Simulate from many
// goroutines so pooled builders are reset and replayed continuously; every
// result must be byte-identical to the baseline. Run under -race this is
// the safety proof for the arena-reuse design.
func TestSimulateConcurrentPooledReuse(t *testing.T) {
	task := builderTask(t, microCluster(4), 0, 8)
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1, DFSNodes: 5000, Chunks: 4}
	plan, err := NewPlan(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sim, err := plan.Simulate()
				if err != nil {
					errs <- err
					return
				}
				if sim.Makespan != baseline.Makespan || sim.NumOps != baseline.NumOps ||
					!reflect.DeepEqual(sim.Events, baseline.Events) {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = errString("pooled simulate diverged from baseline")

type errString string

func (e errString) Error() string { return string(e) }

// rebindLap is the traffic a pooled builder meets in serving: every plan on
// another topology than the one before it (p3, dgx-a100, mixed, their
// strategies rotated by shift), then a multi-NIC broadcast — OnNIC views,
// ":nicK" resource names — right before the same hosts with one NIC each.
func rebindLap(t *testing.T, shift int) []*Plan {
	t.Helper()
	strategies := []Strategy{SendRecv, Broadcast, Alpa}
	var lap []*Plan
	for i, topo := range []mesh.Topology{
		mesh.AWSP3Cluster(4),
		mesh.DGXA100Cluster(2),
		mesh.MixedP3DGXCluster(2, 2, 2),
		withNICs(microCluster(4), 2),
		microCluster(4),
	} {
		strategy := Broadcast
		if i < len(strategies) {
			strategy = strategies[(shift+i)%len(strategies)]
		}
		plan, err := NewPlan(builderTask(t, topo, 0, 8), Options{Strategy: strategy, Scheduler: SchedGreedyLoad, Chunks: 4})
		if err != nil {
			t.Fatal(err)
		}
		lap = append(lap, plan)
	}
	return lap
}

// TestPlanBuilderRebindsAcrossTopologies holds one builder and runs laps of
// plans from different topologies and strategies through it: the builder
// rebinds its net for every plan — same Sim, intern table kept wherever its
// names still hold — always reproducing a fresh builder's result field for
// field.
func TestPlanBuilderRebindsAcrossTopologies(t *testing.T) {
	b := NewPlanBuilder()
	for round := 0; round < 3; round++ {
		lap := rebindLap(t, round)
		for _, plan := range lap {
			want, err := plan.SimulateWith(NewPlanBuilder())
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.SimulateWith(b)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSim(t, plan.String(), got, want)
		}
		// The same plan twice in a row takes the rewind path.
		again, err := lap[len(lap)-1].SimulateWith(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lap[len(lap)-1].SimulateWith(NewPlanBuilder())
		if err != nil {
			t.Fatal(err)
		}
		assertSameSim(t, "repeat", again, want)
	}
}

// allocatedBytes returns the fewest bytes one call of f allocated over a few
// calls; the minimum discards a call the runtime's own allocations crept
// into.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// TestPlanBuilderKeepsArenasAcrossTopologies: once a builder has seen the
// lap, running it again — every bind a topology change — allocates what
// replaying each plan on its own topology allocates (the result, and for the
// baseline strategies their builders' bookkeeping, which no arena holds)
// plus, per rebind where the per-host NIC counts changed, the NIC slots and
// the names of those the plan touches: a few dozen small objects, where a builder that dropped its Sim
// regrew 20-440 KB of op arenas for these plans. Skipped under the race
// detector, whose instrumentation inflates allocation accounting.
func TestPlanBuilderKeepsArenasAcrossTopologies(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	const rebindAllocs, rebindBytes = 64, 2 << 10
	b := NewPlanBuilder()
	lap := rebindLap(t, 0)
	simulate := func(p *Plan) {
		if _, err := p.simulateWith(b, false); err != nil {
			t.Fatal(err)
		}
	}
	runLap := func() {
		for _, p := range lap {
			simulate(p)
		}
	}
	runLap()
	var replayAllocs float64
	var replayBytes uint64
	for _, p := range lap {
		simulate(p)
		replayAllocs += testing.AllocsPerRun(10, func() { simulate(p) })
		replayBytes += allocatedBytes(func() { simulate(p) })
	}
	if got, max := testing.AllocsPerRun(10, runLap), replayAllocs+float64(len(lap)*rebindAllocs); got > max {
		t.Errorf("a lap of %d rebinds allocates %.0f objects, %.0f when nothing rebinds: more than %d per rebind", len(lap), got, replayAllocs, rebindAllocs)
	}
	if got, max := allocatedBytes(runLap), replayBytes+uint64(len(lap)*rebindBytes); got > max {
		t.Errorf("a lap of %d rebinds allocates %d B, %d B when nothing rebinds: more than %d B per rebind", len(lap), got, replayBytes, rebindBytes)
	}
}

// TestAutotuneReusesArenas runs a full grid autotune (which draws pooled
// builders from every worker) and checks the winner is identical to the
// sequential single-worker result — the determinism contract the pool must
// not break.
func TestAutotuneReusesArenas(t *testing.T) {
	task := builderTask(t, microCluster(4), 0, 8)
	base := Options{Seed: 7, Chunks: 4}
	seq, err := AutotuneContext(context.Background(), task, AutotuneOptions{Base: base, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AutotuneContext(context.Background(), task, AutotuneOptions{Base: base, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.BestIndex != par.BestIndex {
		t.Fatalf("winner differs: %d vs %d", seq.BestIndex, par.BestIndex)
	}
	if !reflect.DeepEqual(seq.Trials, par.Trials) {
		t.Fatal("trial table differs between worker counts")
	}
	assertSameSim(t, "autotune best", par.BestSim, seq.BestSim)
}

// TestSimulateNoTraceAllocatesOnlyTheResult: on a held builder that has seen
// the plan once, simulating a 16-unit broadcast plan trace-free allocates the
// SimResult and nothing else — no Result map, completion-op slice, chain,
// label or per-NIC net view per unit — on single-NIC, 8-NIC and mixed
// fabrics alike.
func TestSimulateNoTraceAllocatesOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	for _, tc := range []struct {
		topo               mesh.Topology
		srcFirst, dstFirst int
	}{
		{mesh.AWSP3Cluster(4), 0, 8},
		{mesh.DGXA100Cluster(2), 0, 8},
		// Stages straddling the p3 and dgx-a100 tiers: some chains ride one
		// NIC, some eight.
		{mesh.MixedP3DGXCluster(2, 2, 2), 4, 12},
	} {
		topo := tc.topo
		src, err := topo.Slice([]int{2, 4}, tc.srcFirst)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := topo.Slice([]int{2, 4}, tc.dstFirst)
		if err != nil {
			t.Fatal(err)
		}
		// Eight row blocks by two column blocks, each needed by the four
		// devices of one destination mesh row.
		task, err := sharding.NewTask(tensor.MustShape(64, 96<<10), tensor.Float32,
			src, sharding.MustParse("S01R"), dst, sharding.MustParse("RS0"))
		if err != nil {
			t.Fatal(err)
		}
		if len(task.Units) != 16 {
			t.Fatalf("%v: %d unit tasks, want 16", topo, len(task.Units))
		}
		plan, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedGreedyLoad, Chunks: 8})
		if err != nil {
			t.Fatal(err)
		}
		b := NewPlanBuilder()
		var ops int
		simulate := func() {
			sim, err := plan.simulateWith(b, false)
			if err != nil {
				t.Fatal(err)
			}
			ops = sim.NumOps
		}
		simulate()
		if ops < 16*8*4 {
			t.Fatalf("%v: %d ops, want at least 16 units x 8 chunks x 4 hops", topo, ops)
		}
		if allocs := testing.AllocsPerRun(20, simulate); allocs != 1 {
			t.Errorf("%v: simulating %d ops on a warm builder allocates %.0f objects, want the SimResult alone", topo, ops, allocs)
		}
	}
}

// TestTinyUnitsWithManyChunksStayTiny: a chunk count far above a unit's byte
// count collapses to one chunk per chain (BroadcastChain), and a fresh
// builder's arenas must follow the ops actually registered, not the count the
// options asked for — 64 units x 4 hops x 4096 chunks would be a million ops.
func TestTinyUnitsWithManyChunksStayTiny(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	topo := mesh.AWSP3Cluster(4)
	src, err := topo.Slice([]int{2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := topo.Slice([]int{2, 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(8, 8), tensor.Float32,
		src, sharding.MustParse("S01R"), dst, sharding.MustParse("RS0"))
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(chunks int) *SimResult {
		plan, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedGreedyLoad, Chunks: chunks})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := plan.simulateWith(NewPlanBuilder(), false)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	one, many := simulate(1), simulate(4096)
	if many.NumOps != one.NumOps || many.Makespan != one.Makespan {
		t.Fatalf("4096 chunks: %d ops, makespan %v; 1 chunk: %d ops, makespan %v", many.NumOps, many.Makespan, one.NumOps, one.Makespan)
	}
	const perOp = 1 << 10
	if got, max := allocatedBytes(func() { simulate(4096) }), uint64(many.NumOps*perOp); got > max {
		t.Errorf("a fresh builder allocates %d B for %d ops: more than %d B per op", got, many.NumOps, perOp)
	}
}

// TestServedMissAllocations holds the plan service's cold path — canonical
// cache key, plan, trace-free simulation through a bounded LRU session — to
// a fixed allocation ceiling on the Fig. 6-sized boundary (64 units, 64
// chunks) at the serving node budget. A fresh session per call keeps every
// lookup a miss, as a cold key is on the serving daemon. The ceiling is 20%
// above the 458 recorded when it was set; bench/'s
// service.miss_allocs_per_op tracks the live figure.
func TestServedMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	const maxMissAllocs = 549
	task := stageBoundary(t, mesh.AWSP3Cluster(4), 0, 8, 1024, 1024, 64)
	opts := packOpts
	opts.Chunks = 64
	ctx := context.Background()
	miss := func() {
		if _, _, err := NewPlanner(WithLRUCache(4), WithTraceFreeSim()).Plan(ctx, task, opts); err != nil {
			t.Fatal(err)
		}
	}
	miss()
	if allocs := testing.AllocsPerRun(10, miss); allocs > maxMissAllocs {
		t.Errorf("a served cache miss allocates %.0f objects, ceiling %d", allocs, maxMissAllocs)
	}
}

// TestSimulateRefusesStrayDevices: Plan and SenderOf are exported, so a
// hand-built plan can name a device the cluster does not have; the per-host
// windows must refuse it with an error, not index past their end.
func TestSimulateRefusesStrayDevices(t *testing.T) {
	topo := microCluster(4)
	plan, err := NewPlan(builderTask(t, topo, 0, 8), Options{Strategy: Broadcast, Scheduler: SchedGreedyLoad, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	idx := plan.Order[0]
	sender := plan.SenderOf[idx]
	for _, stray := range []int{-1, topo.NumDevices(), 1 << 20} {
		plan.SenderOf[idx] = stray
		if _, err := plan.Simulate(); err == nil {
			t.Errorf("sender %d: simulated without an error", stray)
		}
	}
	plan.SenderOf[idx] = sender
	receivers := plan.Task.Units[idx].Receivers
	kept := receivers[0]
	for _, stray := range []int{-1, topo.NumDevices(), 1 << 20} {
		receivers[0] = stray
		if _, err := plan.Simulate(); err == nil {
			t.Errorf("receiver %d: simulated without an error", stray)
		}
	}
	receivers[0] = kept
	if _, err := plan.Simulate(); err != nil {
		t.Fatalf("restored plan: %v", err)
	}
}
