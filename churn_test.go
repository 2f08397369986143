package alpacomm_test

import (
	"context"
	"reflect"
	"testing"

	alpacomm "alpacomm"
)

// TestChurnTimelineExample keeps the README's "Incremental replanning"
// example compiling and honest: a healthy plan, then a parsed timeline
// replayed through ReplanDegraded, one step per overlay. Each step is the
// plan a fresh session gives its overlay, and the heal-back is a cache hit.
func TestChurnTimelineExample(t *testing.T) {
	cluster := alpacomm.AWSP3Cluster(4)
	src, err := cluster.Slice([]int{2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := cluster.Slice([]int{2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := alpacomm.NewShape(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	sspec, err := alpacomm.ParseSpec("S01R")
	if err != nil {
		t.Fatal(err)
	}
	dspec, err := alpacomm.ParseSpec("S0R")
	if err != nil {
		t.Fatal(err)
	}
	task, err := alpacomm.NewReshardTask(shape, alpacomm.Float32, src, sspec, dst, dspec)
	if err != nil {
		t.Fatal(err)
	}
	opts := alpacomm.ReshardOptions{Scheduler: alpacomm.SchedulerEnsemble, Seed: 1}
	ctx := context.Background()

	planner := alpacomm.NewPlanner(alpacomm.WithTopology(cluster))
	healthy, _, err := planner.Plan(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}

	tl, err := alpacomm.ParseChurnTimeline("@0 link:0-1:down | @500ms | @1s host:1:nic=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Steps) != 3 {
		t.Fatalf("timeline has %d steps, want 3", len(tl.Steps))
	}
	before := planner.Cache().Stats()
	var plans []*alpacomm.ReshardPlan
	for _, step := range tl.Steps {
		plan, sim, err := planner.ReplanDegraded(ctx, task, opts, step.Faults)
		if err != nil {
			t.Fatalf("step @%v: %v", step.At, err)
		}
		if sim == nil || sim.Makespan <= 0 {
			t.Fatalf("step @%v: no simulation", step.At)
		}
		fresh, _, err := alpacomm.NewPlanner(alpacomm.WithTopology(cluster)).ReplanDegraded(ctx, task, opts, step.Faults)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.SenderOf, fresh.SenderOf) || !reflect.DeepEqual(plan.Order, fresh.Order) {
			t.Errorf("step @%v: plan differs from a fresh session's", step.At)
		}
		plans = append(plans, plan)
	}
	// The @500ms heal returns the cached healthy plan itself.
	if plans[1] != healthy {
		t.Error("heal step did not hit the healthy cache entry")
	}
	after := planner.Cache().Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 2 {
		t.Errorf("cache hits, misses = %d, %d over the timeline; want 1 (the heal) and 2 (one fill per faulted overlay)", hits, misses)
	}
	// The default registry's churn scenarios are usable the same way.
	for _, name := range []string{alpacomm.ChurnScenarioFlap, alpacomm.ChurnScenarioCascade, alpacomm.ChurnScenarioBrownoutRecovery} {
		scenarioTL, err := alpacomm.DefaultTopologyRegistry().BuildChurnScenario(name, cluster)
		if err != nil {
			t.Fatalf("scenario %s: %v", name, err)
		}
		if len(scenarioTL.Steps) == 0 || !scenarioTL.Steps[len(scenarioTL.Steps)-1].Faults.Empty() {
			t.Errorf("scenario %s must end healed", name)
		}
	}
}
