package resharding

import (
	"context"
	"testing"
)

// TestCacheTraceFreeSimulation: a trace-free cache produces timings
// identical to a full-trace fill, with the Events/Utilization payload —
// the dominant fill allocation — absent.
func TestCacheTraceFreeSimulation(t *testing.T) {
	c := microCluster(2)
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1}
	task := autotuneTask(t, c, 0, 4)

	full := NewPlanCache()
	if full.SimulatesNoTrace() {
		t.Fatal("new cache must default to full traces")
	}
	fullSim, err := full.SimulateContext(context.Background(), task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullSim.Events) == 0 {
		t.Fatal("full-trace fill has no events")
	}

	lean := NewPlanCache()
	lean.SetSimulateNoTrace(true)
	if !lean.SimulatesNoTrace() {
		t.Fatal("SetSimulateNoTrace(true) not observed")
	}
	leanSim, err := lean.SimulateContext(context.Background(), autotuneTask(t, c, 0, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if leanSim.Events != nil || leanSim.Utilization != nil {
		t.Errorf("trace-free fill kept a trace: %d events", len(leanSim.Events))
	}
	if leanSim.Makespan != fullSim.Makespan ||
		leanSim.EffectiveGbps != fullSim.EffectiveGbps ||
		leanSim.NumOps != fullSim.NumOps {
		t.Errorf("trace-free timings differ: %+v vs %+v", leanSim, fullSim)
	}
}

// TestCacheAttachment: Attach sticks an arbitrary value to a ready entry
// and LookupKeyedAttachment returns it alongside the plan; missing,
// in-flight or unknown keys refuse the attachment.
func TestCacheAttachment(t *testing.T) {
	c := microCluster(2)
	cache := NewPlanCache()
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1}
	task := autotuneTask(t, c, 0, 4)
	key := CacheKey(task, opts.WithDefaults())

	if cache.Attach(key, "early") {
		t.Error("Attach succeeded on a key that was never filled")
	}
	if _, _, _, ok := cache.LookupKeyedAttachment(key); ok {
		t.Error("LookupKeyedAttachment hit an empty cache")
	}

	plan, sim, err := cache.PlanAndSimulateKeyedContext(context.Background(), key, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := &struct{ n int }{42}
	if !cache.Attach(key, payload) {
		t.Fatal("Attach refused a ready entry")
	}

	gotPlan, gotSim, att, ok := cache.LookupKeyedAttachment(key)
	if !ok {
		t.Fatal("LookupKeyedAttachment missed a filled key")
	}
	if gotPlan != plan || gotSim != sim {
		t.Error("attachment lookup returned a different plan or simulation")
	}
	if att != interface{}(payload) {
		t.Errorf("attachment = %v, want the attached payload", att)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("attachment lookup must count as a hit: %+v", st)
	}

	// Re-attaching replaces the value (last writer wins).
	if !cache.Attach(key, "v2") {
		t.Fatal("re-Attach refused")
	}
	if _, _, att, _ := cache.LookupKeyedAttachment(key); att != interface{}("v2") {
		t.Errorf("re-attachment not visible: %v", att)
	}
}

// TestCacheAttachmentEvicted: an attachment dies with its entry — after an
// LRU eviction both Attach and the lookup miss.
func TestCacheAttachmentEvicted(t *testing.T) {
	c := microCluster(2)
	cache := NewLRUPlanCache(1)
	opts := Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1}

	taskA := autotuneTask(t, c, 0, 4)
	keyA := CacheKey(taskA, opts.WithDefaults())
	if _, _, err := cache.PlanAndSimulateKeyedContext(context.Background(), keyA, taskA, opts); err != nil {
		t.Fatal(err)
	}
	if !cache.Attach(keyA, "a") {
		t.Fatal("Attach refused a ready entry")
	}

	// A second key evicts the first from the capacity-1 cache.
	optsB := opts
	optsB.Seed = 2
	keyB := CacheKey(taskA, optsB.WithDefaults())
	if _, _, err := cache.PlanAndSimulateKeyedContext(context.Background(), keyB, autotuneTask(t, c, 0, 4), optsB); err != nil {
		t.Fatal(err)
	}

	if cache.Attach(keyA, "resurrect") {
		t.Error("Attach succeeded on an evicted entry")
	}
	if _, _, _, ok := cache.LookupKeyedAttachment(keyA); ok {
		t.Error("LookupKeyedAttachment hit an evicted entry")
	}
}
