package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// direct plans a problem the way a caller without the service would: the
// reference every served plan is compared against.
func direct(p problem) (*resharding.Plan, *resharding.SimResult, error) {
	plan, err := resharding.NewPlanContext(bg, p.Task, p.Opts)
	if err != nil {
		return nil, nil, err
	}
	sim, err := plan.SimulateNoTrace()
	if err != nil {
		return nil, nil, err
	}
	return plan, sim, nil
}

// directResponse renders the reference plan as the wire response a server
// must answer p with.
func directResponse(p problem) (*service.PlanResponse, error) {
	plan, sim, err := direct(p)
	if err != nil {
		return nil, err
	}
	senders := make([]int, len(p.Task.Units))
	for i := range senders {
		senders[i] = plan.SenderOf[i]
	}
	return &service.PlanResponse{
		Strategy:        p.Opts.Strategy.String(),
		Scheduler:       p.Opts.Scheduler.String(),
		NumUnits:        len(p.Task.Units),
		Senders:         senders,
		Order:           plan.Order,
		MakespanSeconds: sim.Makespan,
		EffectiveGbps:   sim.EffectiveGbps,
		NumOps:          sim.NumOps,
		Key:             p.Key,
	}, nil
}

// samePlan checks a plan and simulation the program produced against the
// reference, field for field.
func samePlan(p problem, plan *resharding.Plan, sim *resharding.SimResult) error {
	refPlan, refSim, err := direct(p)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(plan.SenderOf, refPlan.SenderOf) || !reflect.DeepEqual(plan.Order, refPlan.Order) {
		return fmt.Errorf("plan differs from the direct plan")
	}
	if sim.Makespan != refSim.Makespan || sim.NumOps != refSim.NumOps || sim.EffectiveGbps != refSim.EffectiveGbps {
		return fmt.Errorf("simulation differs from the direct simulation")
	}
	return nil
}

// checkBothFormats fetches p from h in both wire formats and checks JSON
// and binary carry the same plan, that it equals the reference, and that a
// repeated JSON answer is byte-identical.
func checkBothFormats(h http.Handler, p problem) (*service.PlanResponse, error) {
	status, jsonBody, err := serveCaptured(h, &p.Req, false)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("key %q: JSON status %d, %v", p.Key, status, err)
	}
	var fromJSON service.PlanResponse
	if err := json.Unmarshal(jsonBody, &fromJSON); err != nil {
		return nil, fmt.Errorf("key %q: %w", p.Key, err)
	}
	status, frame, err := serveCaptured(h, &p.Req, true)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("key %q: binary status %d, %v", p.Key, status, err)
	}
	fromBinary, err := service.DecodePlanFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("key %q: %w", p.Key, err)
	}
	if !reflect.DeepEqual(&fromJSON, fromBinary) {
		return nil, fmt.Errorf("key %q: JSON and binary answers differ", p.Key)
	}
	want, err := directResponse(p)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(&fromJSON, want) {
		return nil, fmt.Errorf("key %q: served plan differs from the direct plan:\n served %+v\n direct %+v", p.Key, fromJSON, *want)
	}
	_, again, err := serveCaptured(h, &p.Req, false)
	if err != nil || !bytes.Equal(jsonBody, again) {
		return nil, fmt.Errorf("key %q: repeated answer is not byte-identical", p.Key)
	}
	return &fromJSON, nil
}

// verifyServers checks the leading sample of a workload's problems (fault
// free by construction: the paper's problems, then seeded draws) on every
// server of its state: both wire formats agree, the plan equals the direct
// plan, and every server answers the same bytes. It records the makespans
// it read, for problems the timed loop did not reach or did not read.
func verifyServers(servers []*service.Server, sample []problem, served []float64) error {
	for i, p := range sample {
		var first []byte
		for n, srv := range servers {
			resp, err := checkBothFormats(srv, p)
			if err != nil {
				return fmt.Errorf("server %d: %w", n, err)
			}
			served[i] = resp.MakespanSeconds
			_, body, err := serveCaptured(srv, &p.Req, false)
			if err != nil {
				return err
			}
			if n == 0 {
				first = body
			} else if !bytes.Equal(first, body) {
				return fmt.Errorf("key %q: servers answer different bytes", p.Key)
			}
		}
	}
	return nil
}

// checkTable2Ordering checks the paper's headline on the Table 2 cases:
// the served plan (ours) is no slower than Alpa's all-gather baseline,
// which is no slower than send/recv.
func checkTable2Ordering(probs []problem, ours []float64) error {
	cases := probs[:min(table2Count, len(probs))]
	baseline := func(p problem, s resharding.Strategy) (float64, error) {
		plan, err := resharding.NewPlanContext(bg, p.Task, resharding.Options{Strategy: s, Scheduler: resharding.SchedGreedyLoad})
		if err != nil {
			return 0, err
		}
		sim, err := plan.SimulateNoTrace()
		if err != nil {
			return 0, err
		}
		return sim.Makespan, nil
	}
	for i, p := range cases {
		alpa, err := baseline(p, resharding.Alpa)
		if err != nil {
			return err
		}
		sendRecv, err := baseline(p, resharding.SendRecv)
		if err != nil {
			return err
		}
		if !(ours[i] <= alpa && alpa <= sendRecv) {
			return fmt.Errorf("table 2 case %d: makespans ours %g, alpa %g, send/recv %g are not ordered", i+1, ours[i], alpa, sendRecv)
		}
	}
	return nil
}
