package alpacomm_test

import (
	"testing"

	alpacomm "alpacomm"
)

// deepGPTJob builds an 8-stage GPT pipeline (7 congruent stage boundaries,
// one p3 host per stage) for the cache and autotune integration tests.
func deepGPTJob(t *testing.T) alpacomm.TrainingJob {
	t.Helper()
	pc := alpacomm.ParallelConfig{DP: 2, OP: 2, PP: 8}
	w, err := alpacomm.NewGPTWorkload(alpacomm.GPT1_3B(), pc, alpacomm.Float16, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	return alpacomm.TrainingJob{
		Cluster:  alpacomm.AWSP3Cluster(8),
		Device:   alpacomm.V100(),
		Workload: w,
		Parallel: pc,
		Schedule: alpacomm.ScheduleEager1F1B,
		Overlap:  true,
		Reshard: alpacomm.ReshardOptions{
			Strategy:  alpacomm.StrategyBroadcast,
			Scheduler: alpacomm.SchedulerEnsemble,
			Seed:      1,
		},
	}
}

// TestDeepPipelineCachedBoundariesMatchFresh pins the refactor's
// correctness contract: on the homogeneous p3 topology, the plan cache
// must reproduce exactly the timings that planning every boundary from
// scratch produces — same floats, not approximately.
func TestDeepPipelineCachedBoundariesMatchFresh(t *testing.T) {
	job := deepGPTJob(t)
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FwdCommTime) != 7 {
		t.Fatalf("boundaries = %d, want 7", len(rep.FwdCommTime))
	}
	// All 7 boundaries are congruent (one host per stage, identical
	// tensors), so the cached times must be identical.
	for s, c := range rep.FwdCommTime {
		if c != rep.FwdCommTime[0] {
			t.Errorf("boundary %d time %g != boundary 0 time %g", s, c, rep.FwdCommTime[0])
		}
		if c <= 0 {
			t.Errorf("boundary %d has degenerate comm time %g", s, c)
		}
	}
	// Re-plan boundary 5 from scratch, bypassing the cache; it must match
	// the cached value bit for bit.
	meshes, err := job.StageMeshes()
	if err != nil {
		t.Fatal(err)
	}
	var fresh float64
	for _, bt := range job.Workload.Boundaries {
		if bt.Boundary != 5 {
			continue
		}
		srcSpec, err := alpacomm.ParseSpec(bt.SrcSpec)
		if err != nil {
			t.Fatal(err)
		}
		dstSpec, err := alpacomm.ParseSpec(bt.DstSpec)
		if err != nil {
			t.Fatal(err)
		}
		task, err := alpacomm.NewReshardTask(bt.Shape, job.Workload.DType, meshes[5], srcSpec, meshes[6], dstSpec)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := alpacomm.PlanReshard(task, job.Reshard)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		fresh += res.Makespan
	}
	if fresh != rep.FwdCommTime[5] {
		t.Errorf("cached boundary time %g != fresh plan time %g", rep.FwdCommTime[5], fresh)
	}
	// The run must be reproducible end to end.
	rep2, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.IterationTime != rep.IterationTime {
		t.Errorf("iteration time not reproducible: %g vs %g", rep2.IterationTime, rep.IterationTime)
	}
}

// TestSharedCacheAcrossRuns: a caller-owned cache serves a second run
// entirely from memory.
func TestSharedCacheAcrossRuns(t *testing.T) {
	cache := alpacomm.NewReshardCache()
	job := deepGPTJob(t)
	job.Planner = alpacomm.NewPlanner(alpacomm.WithCache(cache), alpacomm.WithAutotuneCache(cache))
	rep1, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Errorf("7 congruent boundaries should collapse to one entry, got %+v", st)
	}
	if st.Hits != 6 || st.Misses != 1 {
		t.Errorf("want 1 miss + 6 hits, got %+v", st)
	}
	rep2, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 1 || st.Hits != 13 {
		t.Errorf("second run should be all hits, got %+v", st)
	}
	if rep1.IterationTime != rep2.IterationTime {
		t.Errorf("runs disagree: %g vs %g", rep1.IterationTime, rep2.IterationTime)
	}
}

// TestTrainingJobOnHeteroCluster runs the full stack on the DGX-A100
// preset: same model and device throughput as a p3 run, but faster NICs —
// so iterations must be at least as fast, and strictly faster when the
// boundary crosses hosts.
func TestTrainingJobOnHeteroCluster(t *testing.T) {
	pc := alpacomm.ParallelConfig{DP: 2, OP: 4, PP: 2}
	w, err := alpacomm.NewGPTWorkload(alpacomm.GPT1_3B(), pc, alpacomm.Float16, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(topo alpacomm.Topology) *alpacomm.TrainingReport {
		job := alpacomm.TrainingJob{
			Cluster:  topo,
			Device:   alpacomm.V100(),
			Workload: w,
			Parallel: pc,
			Schedule: alpacomm.Schedule1F1B,
			Reshard: alpacomm.ReshardOptions{
				Strategy:  alpacomm.StrategyBroadcast,
				Scheduler: alpacomm.SchedulerEnsemble,
				Seed:      1,
			},
		}
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	p3 := run(alpacomm.AWSP3Cluster(4))    // 2 hosts per stage
	dgx := run(alpacomm.DGXA100Cluster(2)) // 1 host per stage
	if dgx.TFLOPS <= 0 || p3.TFLOPS <= 0 {
		t.Fatalf("degenerate throughput: dgx %g, p3 %g", dgx.TFLOPS, p3.TFLOPS)
	}
	if dgx.IterationTime >= p3.IterationTime {
		t.Errorf("DGX iteration (%g) should beat p3 (%g): same compute, faster fabric",
			dgx.IterationTime, p3.IterationTime)
	}
	if dgx.FwdCommTime[0] >= p3.FwdCommTime[0] {
		t.Errorf("DGX boundary comm (%g) should beat p3 (%g)", dgx.FwdCommTime[0], p3.FwdCommTime[0])
	}
}

// TestTrainingJobAutotune: the per-boundary grid search runs end to end,
// reuses the cache across congruent boundaries, and is reproducible.
func TestTrainingJobAutotune(t *testing.T) {
	cache := alpacomm.NewReshardCache()
	job := deepGPTJob(t)
	job.Autotune = true
	job.Planner = alpacomm.NewPlanner(alpacomm.WithCache(cache), alpacomm.WithAutotuneCache(cache))
	rep1, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s, c := range rep1.FwdCommTime {
		if c != rep1.FwdCommTime[0] {
			t.Errorf("autotuned boundary %d time %g != boundary 0 time %g", s, c, rep1.FwdCommTime[0])
		}
	}
	// One grid sweep total: every candidate planned once, then 6 boundaries
	// x grid-size hits.
	grid := len(alpacomm.DefaultAutotuneGrid())
	st := cache.Stats()
	if st.Entries != grid || st.Misses != grid || st.Hits != 6*grid {
		t.Errorf("autotune cache stats = %+v, want %d entries, %d misses, %d hits",
			st, grid, grid, 6*grid)
	}
	rep2, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.IterationTime != rep2.IterationTime {
		t.Errorf("autotuned runs disagree: %g vs %g", rep1.IterationTime, rep2.IterationTime)
	}
	// The autotuned boundary cannot be slower than the fixed broadcast
	// configuration's boundary under the same derived-seed grid.
	fixed := deepGPTJob(t)
	repFixed, err := fixed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.FwdCommTime[0] > repFixed.FwdCommTime[0]*1.05 {
		t.Errorf("autotuned boundary %g should not lose to fixed config %g",
			rep1.FwdCommTime[0], repFixed.FwdCommTime[0])
	}
}
