package main

import (
	"context"
	"testing"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// TestClusterKeyReqMustSearch guards the -cluster working set against rot:
// the scaling floor holds only while a miss pays a full search, so the
// request shape must end unproven with every budget spent (the run's own
// checkSearched reads the same fact from /v2/stats).
func TestClusterKeyReqMustSearch(t *testing.T) {
	task, opts, _, err := service.New(service.Config{}).ParsePlanRequest(context.Background(), clusterKeyReq(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := resharding.NewPlan(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := plan.Report; r.Proven || r.DFSNodes <= opts.DFSNodes || r.GreedyTrials == 0 {
		t.Errorf("fixture rotted: clusterKeyReq ended %+v; every miss must spend the DFS budget (%d nodes) unproven", r, opts.DFSNodes)
	}
}
