package alpacomm_test

import (
	"context"
	"testing"
	"time"

	alpacomm "alpacomm"
)

// TestPlannerSessionTrainingJob: a caller-owned session drives a training
// job, its cache collapses the 7 congruent boundaries to one computation,
// and a second job sharing the session runs entirely from memory —
// matching a job left to its private session bit for bit.
func TestPlannerSessionTrainingJob(t *testing.T) {
	session := alpacomm.NewPlanner(alpacomm.WithTopology(alpacomm.AWSP3Cluster(8)))
	job := deepGPTJob(t)
	job.Planner = session
	rep1, err := job.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := session.Cache().Stats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 6 {
		t.Errorf("session cache stats %+v, want 1 entry / 1 miss / 6 hits", st)
	}

	private := deepGPTJob(t)
	rep2, err := private.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.IterationTime != rep2.IterationTime {
		t.Errorf("session-run iteration %g != private-session run %g", rep1.IterationTime, rep2.IterationTime)
	}

	// Second job on the shared session: all hits, identical result.
	job2 := deepGPTJob(t)
	job2.Planner = session
	rep3, err := job2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st = session.Cache().Stats()
	if st.Misses != 1 || st.Hits != 13 {
		t.Errorf("shared-session second run should be all hits, got %+v", st)
	}
	if rep3.IterationTime != rep1.IterationTime {
		t.Errorf("shared-session runs disagree: %g vs %g", rep3.IterationTime, rep1.IterationTime)
	}
}

// TestPlanBoundaries: the one-call batch entry point plans every boundary
// of the GPT job, reports one equivalence class for its 7 congruent
// boundaries, and reproduces the timings TrainingJob.Run computes.
func TestPlanBoundaries(t *testing.T) {
	session := alpacomm.NewPlanner()
	job := deepGPTJob(t)
	plans, err := session.PlanBoundaries(context.Background(), &job)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 7 {
		t.Fatalf("planned %d boundaries, want 7", len(plans))
	}
	keys := map[string]bool{}
	for i, bp := range plans {
		if bp.Boundary != i {
			t.Errorf("plan %d reports boundary %d", i, bp.Boundary)
		}
		if bp.Plan == nil || bp.Sim == nil || bp.Sim.Makespan <= 0 {
			t.Fatalf("boundary %d degenerate: %+v", i, bp)
		}
		keys[bp.Key] = true
		if bp.Sim.Makespan != plans[0].Sim.Makespan {
			t.Errorf("boundary %d makespan %g != boundary 0 %g", i, bp.Sim.Makespan, plans[0].Sim.Makespan)
		}
	}
	if len(keys) != 1 {
		t.Errorf("7 congruent boundaries span %d equivalence classes, want 1", len(keys))
	}
	if st := session.Cache().Stats(); st.Misses != 1 {
		t.Errorf("PlanBoundaries cost %d computations, want 1 (stats %+v)", st.Misses, st)
	}

	// The batch timings must agree with the job's own run bit for bit.
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, bp := range plans {
		if rep.FwdCommTime[i] != bp.Sim.Makespan {
			t.Errorf("boundary %d: PlanBoundaries %g != Run %g", i, bp.Sim.Makespan, rep.FwdCommTime[i])
		}
	}
}

// TestRunContextCancelled: an autotuned deep job under an immediately
// cancelled context aborts instead of sweeping 7 boundaries' grids.
func TestRunContextCancelled(t *testing.T) {
	job := deepGPTJob(t)
	job.Autotune = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := job.RunContext(ctx); err != context.Canceled {
		t.Fatalf("cancelled RunContext returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v", elapsed)
	}
}
