package resharding

import (
	"context"
	"sync"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

func TestCacheHitMissSemantics(t *testing.T) {
	c := microCluster(2)
	cache := NewPlanCache()
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1}

	task := autotuneTask(t, c, 0, 4)
	r1, err := cache.SimulateContext(context.Background(), task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("after first lookup: %+v", st)
	}

	// The identical problem hits, and returns the same simulation.
	r2, err := cache.SimulateContext(context.Background(), autotuneTask(t, c, 0, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after identical lookup: %+v", st)
	}
	if r1.Makespan != r2.Makespan {
		t.Errorf("hit returned different makespan: %g vs %g", r1.Makespan, r2.Makespan)
	}

	// Any option that changes planning misses.
	for _, other := range []Options{
		{Strategy: SendRecv, Scheduler: SchedEnsemble, Seed: 1},
		{Strategy: Broadcast, Scheduler: SchedNaive, Seed: 1},
		{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 2},
		{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1, Chunks: 8},
	} {
		if _, err := cache.SimulateContext(context.Background(), autotuneTask(t, c, 0, 4), other); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Misses != 5 {
		t.Errorf("option variants must all miss: %+v", st)
	}
}

// TestCacheTranslationInvariance pins the cross-boundary property: a
// boundary on hosts 2->3 is served by the entry planned for hosts 0->1, and
// the cached timing equals what planning the translated boundary from
// scratch would produce.
func TestCacheTranslationInvariance(t *testing.T) {
	c := microCluster(4)
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1}

	first := autotuneTask(t, c, 0, 4)
	translated := autotuneTask(t, c, 8, 12)
	if CacheKey(first, opts) != CacheKey(translated, opts) {
		t.Fatalf("congruent boundaries must share a key:\n%s\n%s",
			CacheKey(first, opts), CacheKey(translated, opts))
	}

	cache := NewPlanCache()
	if _, err := cache.SimulateContext(context.Background(), first, opts); err != nil {
		t.Fatal(err)
	}
	cached, err := cache.SimulateContext(context.Background(), translated, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("translated boundary must hit: %+v", st)
	}

	plan, err := NewPlan(translated, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if cached.Makespan != fresh.Makespan || cached.NumOps != fresh.NumOps {
		t.Errorf("cached timing (%.9g, %d ops) != fresh timing (%.9g, %d ops)",
			cached.Makespan, cached.NumOps, fresh.Makespan, fresh.NumOps)
	}
}

// TestCacheKeyDiscriminates: keys must separate problems the simulator
// times differently.
func TestCacheKeyDiscriminates(t *testing.T) {
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1}
	c := microCluster(4)

	base := autotuneTask(t, c, 0, 4)
	// Different destination placement.
	dst2, err := mesh.NewMesh(c, []int{1, 4}, contiguous(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	src, err := mesh.NewMesh(c, []int{2, 2}, contiguous(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	otherShape, err := sharding.NewTask(tensor.MustShape(64, 96), tensor.Float32,
		src, sharding.MustParse("S01R"), dst2, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(base, opts) == CacheKey(otherShape, opts) {
		t.Error("different destination mesh shapes must not collide")
	}

	// A boundary that straddles a host is not congruent with an aligned one.
	srcStraddle, err := mesh.NewMesh(c, []int{2, 2}, []int{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	dstStraddle, err := mesh.NewMesh(c, []int{2, 2}, []int{10, 11, 12, 13})
	if err != nil {
		t.Fatal(err)
	}
	straddle, err := sharding.NewTask(tensor.MustShape(64, 96), tensor.Float32,
		srcStraddle, sharding.MustParse("S01R"), dstStraddle, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(base, opts) == CacheKey(straddle, opts) {
		t.Error("host-aligned and host-straddling boundaries must not collide")
	}

	// The same layout on a different hardware tier must not collide.
	dgx := mesh.DGXA100Cluster(2)
	srcD, err := mesh.NewMesh(dgx, []int{2, 2}, contiguous(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	dstD, err := mesh.NewMesh(dgx, []int{2, 2}, contiguous(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	onDGX, err := sharding.NewTask(tensor.MustShape(64, 96), tensor.Float32,
		srcD, sharding.MustParse("S01R"), dstD, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(base, opts) == CacheKey(onDGX, opts) {
		t.Error("different hardware tiers must not collide")
	}
}

// TestCacheConcurrentSingleflight: concurrent lookups of one key plan once.
func TestCacheConcurrentSingleflight(t *testing.T) {
	c := microCluster(2)
	cache := NewPlanCache()
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1, DFSNodes: 1000}
	var wg sync.WaitGroup
	results := make([]float64, 16)
	tasks := make([]*sharding.Task, len(results))
	for i := range tasks {
		tasks[i] = autotuneTask(t, c, 0, 4)
	}
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cache.SimulateContext(context.Background(), tasks[i], opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Makespan
		}(i)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Entries != 1 || st.Hits+st.Misses != 16 {
		t.Errorf("stats = %+v, want one entry and 16 lookups", st)
	}
	for i, m := range results {
		if m != results[0] {
			t.Fatalf("lookup %d returned %g, want %g", i, m, results[0])
		}
	}
}
