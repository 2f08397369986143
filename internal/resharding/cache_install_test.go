package resharding

import (
	"context"
	"testing"
)

// TestCacheInstall: an externally obtained plan installed into the cache
// serves later lookups as hits, counts neither hit nor miss itself, and
// never displaces or duplicates an existing entry.
func TestCacheInstall(t *testing.T) {
	c := microCluster(2)
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1}
	task := autotuneTask(t, c, 0, 4)
	key := CacheKey(task, opts)

	// Source of truth: compute once in a donor cache.
	donor := NewPlanCache()
	plan, sim, err := donor.PlanAndSimulateKeyedContext(context.Background(), key, task, opts)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewLRUPlanCache(4)
	if cache.Install(key, nil, sim) || cache.Install(key, plan, nil) {
		t.Error("nil plan or sim accepted")
	}
	if !cache.Install(key, plan, sim) {
		t.Fatal("install refused on an empty cache")
	}
	if cache.Install(key, plan, sim) {
		t.Error("second install of a resident key accepted")
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 1 {
		t.Errorf("install must not count as traffic: %+v", st)
	}

	gotPlan, gotSim, ok := cache.LookupKeyed(key)
	if !ok || gotPlan != plan || gotSim != sim {
		t.Fatal("installed entry not served by keyed lookup")
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("lookup of installed entry must hit: %+v", st)
	}
	// The planner path also sees it as a hit: no recomputation.
	if _, _, err := cache.PlanAndSimulateKeyedContext(context.Background(), key, task, opts); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 0 {
		t.Errorf("plan-and-simulate recomputed an installed entry: %+v", st)
	}
}

// TestCacheInstallRespectsCapacity: installs participate in the LRU bound
// exactly like computed fills — the cache never exceeds capacity.
func TestCacheInstallRespectsCapacity(t *testing.T) {
	c := microCluster(2)
	task := autotuneTask(t, c, 0, 4)
	const capacity = 3
	cache := NewLRUPlanCache(capacity)
	donor := NewPlanCache()
	for i := 0; i < 2*capacity; i++ {
		opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: int64(i + 1)}
		key := CacheKey(task, opts)
		plan, sim, err := donor.PlanAndSimulateKeyedContext(context.Background(), key, task, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !cache.Install(key, plan, sim) {
			t.Fatalf("install %d refused", i)
		}
		if st := cache.Stats(); st.Entries > capacity {
			t.Fatalf("cache grew to %d entries, capacity %d", st.Entries, capacity)
		}
	}
	if st := cache.Stats(); st.Entries != capacity {
		t.Errorf("entries = %d, want %d", st.Entries, capacity)
	}
	// The most recent installs survived.
	for i := 2*capacity - 1; i >= capacity; i-- {
		opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: int64(i + 1)}
		if _, _, ok := cache.LookupKeyed(CacheKey(task, opts)); !ok {
			t.Errorf("recently installed seed %d evicted", i+1)
		}
	}
}

// TestCacheExport: Export returns every completed entry exactly once —
// MRU first on a bounded cache — with plan, sim and attachment intact.
func TestCacheExport(t *testing.T) {
	c := microCluster(2)
	task := autotuneTask(t, c, 0, 4)
	cache := NewLRUPlanCache(8)
	keys := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: int64(i + 1)}
		key := CacheKey(task, opts)
		if _, _, err := cache.PlanAndSimulateKeyedContext(context.Background(), key, task, opts); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	cache.Attach(keys[0], "payload-0")

	got := cache.Export()
	if len(got) != 4 {
		t.Fatalf("exported %d entries, want 4", len(got))
	}
	seen := map[string]bool{}
	for i, e := range got {
		if e.Plan == nil || e.Sim == nil {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
		if seen[e.Key] {
			t.Fatalf("key exported twice: %s", e.Key)
		}
		seen[e.Key] = true
	}
	// MRU-first on a bounded cache: last filled comes first.
	for i, e := range got {
		if want := keys[len(keys)-1-i]; e.Key != want {
			t.Errorf("export order[%d] = %s, want %s", i, e.Key, want)
		}
	}
	if got[3].Attach != "payload-0" {
		t.Errorf("attachment not exported: %v", got[3].Attach)
	}

	// Unbounded cache exports everything too (key-sorted for determinism).
	ub := NewPlanCache()
	for i := 0; i < 3; i++ {
		opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: int64(i + 1)}
		if _, _, err := ub.PlanAndSimulateKeyedContext(context.Background(), CacheKey(task, opts), task, opts); err != nil {
			t.Fatal(err)
		}
	}
	ue := ub.Export()
	if len(ue) != 3 {
		t.Fatalf("unbounded export = %d entries, want 3", len(ue))
	}
	for i := 1; i < len(ue); i++ {
		if ue[i-1].Key >= ue[i].Key {
			t.Errorf("unbounded export not key-sorted at %d", i)
		}
	}

	if n := len(NewPlanCache().Export()); n != 0 {
		t.Errorf("empty cache exported %d entries", n)
	}
}
