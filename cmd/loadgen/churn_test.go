package main

import (
	"context"
	"fmt"
	"testing"

	alpacomm "alpacomm"
	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// TestChurnTemplateMustSearch guards the churn fixture against rot: the
// server hands a fault-free twin only to a miss whose draft must search, so
// the churn smoke's "at least one warm replan" gate holds only while every
// step of every registry timeline — healthy and faulted — searches.
func TestChurnTemplateMustSearch(t *testing.T) {
	reg := alpacomm.DefaultTopologyRegistry()
	tmpl := churnTemplate()
	topo, err := reg.Build(tmpl.topology.Name, alpacomm.TopologyParams{Hosts: tmpl.topology.Hosts})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{})
	searches := func(what string, req *service.PlanRequest) {
		t.Helper()
		task, opts, _, err := srv.ParsePlanRequest(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d, err := resharding.NewDraft(task, opts); err != nil || d.Proven() {
			t.Errorf("fixture rotted: the %s draft is proven (err %v); the churn phase would replan nothing warm", what, err)
		}
	}
	searches("healthy", tmpl.planRequest(1, nil))
	for _, name := range reg.ChurnScenarioNames() {
		tl, err := reg.BuildChurnScenario(name, topo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, step := range tl.Steps {
			if overlay := faultsRefOf(step.Faults); overlay != nil {
				searches(fmt.Sprintf("%s step %d", name, i), tmpl.planRequest(1, overlay))
			}
		}
	}
}
