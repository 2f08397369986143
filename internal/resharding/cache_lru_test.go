package resharding

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// optsWithSeed returns otherwise-identical options whose seed makes the
// cache key distinct — the cheapest way to mint fresh keys.
func optsWithSeed(seed int64) Options {
	return Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: seed, DFSNodes: 1000}
}

func TestLRUCacheBoundAndEviction(t *testing.T) {
	c := microCluster(2)
	task := autotuneTask(t, c, 0, 4)
	const capacity = 4
	cache := NewLRUPlanCache(capacity)
	if cache.Capacity() != capacity {
		t.Fatalf("Capacity() = %d", cache.Capacity())
	}

	// Fill to twice the capacity with distinct keys.
	for i := 0; i < 2*capacity; i++ {
		if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Entries > capacity {
			t.Fatalf("after %d inserts: %d entries > capacity %d", i+1, st.Entries, capacity)
		}
	}
	st := cache.Stats()
	if st.Entries != capacity {
		t.Errorf("entries = %d, want %d", st.Entries, capacity)
	}
	if st.Evictions != capacity {
		t.Errorf("evictions = %d, want %d", st.Evictions, capacity)
	}
	if st.Misses != 2*capacity || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}

	// The most recent keys are resident; the oldest were evicted.
	if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(int64(2*capacity))); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("most recent key must hit: %+v", st)
	}
	if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2*capacity+1 {
		t.Errorf("evicted key must miss: %+v", st)
	}
}

func TestLRUCacheRecencyOrder(t *testing.T) {
	c := microCluster(2)
	task := autotuneTask(t, c, 0, 4)
	cache := NewLRUPlanCache(2)

	for _, seed := range []int64{1, 2} {
		if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes the LRU victim of the next insert.
	if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(1)); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 2 {
		t.Errorf("touched key must survive the eviction: %+v", st)
	}
	if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(2)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 4 {
		t.Errorf("untouched key must have been evicted: %+v", st)
	}
}

// failingTask builds a task whose planning always errors: its two meshes
// live on topologies with different fingerprints, which NewPlan rejects.
func failingTask(t *testing.T, devs int) *sharding.Task {
	t.Helper()
	a := microCluster(2)
	b, err := mesh.NewCluster(2, 4, 999, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := mesh.NewMesh(a, []int{2, 2}, contiguous(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := mesh.NewMesh(b, []int{2, 2}, contiguous(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(64, 96), tensor.Float32,
		src, sharding.MustParse("S01R"), dst, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// TestCacheDropsErroredEntries pins the sticky-error fix: a failed
// planning must not be replayed from the cache forever.
func TestCacheDropsErroredEntries(t *testing.T) {
	for _, cache := range []*PlanCache{NewPlanCache(), NewLRUPlanCache(8)} {
		task := failingTask(t, 8)
		opts := optsWithSeed(1)
		if _, _, err := cache.PlanAndSimulateContext(context.Background(), task, opts); err == nil {
			t.Fatal("planning across mismatched topologies must fail")
		}
		st := cache.Stats()
		if st.Entries != 0 {
			t.Errorf("errored entry retained: %+v", st)
		}
		if st.Misses != 1 {
			t.Errorf("stats = %+v", st)
		}
		// The retry misses again (no poisoned hit) and still reports the
		// error.
		if _, _, err := cache.PlanAndSimulateContext(context.Background(), task, opts); err == nil {
			t.Fatal("retry must re-plan and fail again")
		}
		st = cache.Stats()
		if st.Misses != 2 || st.Hits != 0 || st.Entries != 0 {
			t.Errorf("retry stats = %+v", st)
		}
	}
}

// TestCacheConcurrentExactCounts is the issue's satellite: N concurrent
// PlanAndSimulate calls on one key must produce exactly one miss, N-1
// hits, and identical plans (run under -race).
func TestCacheConcurrentExactCounts(t *testing.T) {
	const n = 32
	c := microCluster(2)
	cache := NewPlanCache()
	opts := optsWithSeed(7)

	tasks := make([]*sharding.Task, n)
	for i := range tasks {
		tasks[i] = autotuneTask(t, c, 0, 4)
	}
	plans := make([]*Plan, n)
	sims := make([]*SimResult, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plan, sim, err := cache.PlanAndSimulateContext(context.Background(), tasks[i], opts)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i], sims[i] = plan, sim
		}(i)
	}
	close(start)
	wg.Wait()

	st := cache.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want exactly 1 miss and %d hits", st, n-1)
	}
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("lookup %d returned a different plan instance", i)
		}
		if !reflect.DeepEqual(plans[i].Order, plans[0].Order) ||
			!reflect.DeepEqual(plans[i].SenderOf, plans[0].SenderOf) {
			t.Fatalf("lookup %d returned a different schedule", i)
		}
		if sims[i].Makespan != sims[0].Makespan {
			t.Fatalf("lookup %d returned makespan %g, want %g", i, sims[i].Makespan, sims[0].Makespan)
		}
	}
}

// TestLRUCacheConcurrentDistinctKeys hammers a tiny cache with many
// distinct keys from many goroutines: the bound must hold at every
// observation and the cache must stay coherent under eviction (-race).
func TestLRUCacheConcurrentDistinctKeys(t *testing.T) {
	const capacity = 4
	const workers = 8
	const perWorker = 24
	c := microCluster(2)
	cache := NewLRUPlanCache(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := autotuneTask(t, c, 0, 4)
			for i := 0; i < perWorker; i++ {
				// Overlapping key ranges across workers: some coalesce,
				// some evict each other.
				seed := int64(1 + (w*perWorker+i)%(3*capacity))
				if _, err := cache.SimulateContext(context.Background(), task, optsWithSeed(seed)); err != nil {
					t.Error(err)
					return
				}
				if st := cache.Stats(); st.Entries > capacity {
					t.Errorf("entries %d > capacity %d", st.Entries, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Entries > capacity {
		t.Errorf("final entries %d > capacity %d", st.Entries, capacity)
	}
	if st.Hits+st.Misses != workers*perWorker {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, workers*perWorker)
	}
}

// TestLRUCacheMatchesExactLRU drives a cache with random fills and hits
// and holds it to a reference LRU list after every step: the same keys
// resident, exported in the same most- to least-recent order, the same
// counters. Hits only stamp their entry and the list is reordered when a
// victim is picked, so this is what keeps that lazy order exact.
func TestLRUCacheMatchesExactLRU(t *testing.T) {
	plan, sim := &Plan{}, &SimResult{}
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 5, 16} {
		cache := NewLRUPlanCache(capacity)
		var ref []string // most recent first
		var hits, evictions int
		for step := 0; step < 4000; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(3*capacity+2))
			at := slices.Index(ref, key)
			if rng.Intn(2) == 0 {
				if got := cache.Install(key, plan, sim); got != (at < 0) {
					t.Fatalf("cap %d step %d: Install(%s) = %v with %s resident", capacity, step, key, got, key)
				}
				if at < 0 {
					ref = append([]string{key}, ref...)
					if len(ref) > capacity {
						ref = ref[:capacity]
						evictions++
					}
				}
			} else {
				if _, _, ok := cache.LookupKeyed(key); ok != (at >= 0) {
					t.Fatalf("cap %d step %d: LookupKeyed(%s) hit = %v", capacity, step, key, ok)
				}
				if at >= 0 {
					ref = append([]string{key}, slices.Delete(ref, at, at+1)...)
					hits++
				}
			}
			var got []string
			for _, e := range cache.Export() {
				got = append(got, e.Key)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("cap %d step %d: export order %v, exact LRU %v", capacity, step, got, ref)
			}
			if st := cache.Stats(); st.Entries != len(ref) || st.Hits != hits || st.Evictions != evictions {
				t.Fatalf("cap %d step %d: stats %+v, want %d entries, %d hits, %d evictions", capacity, step, st, len(ref), hits, evictions)
			}
		}
	}
}
