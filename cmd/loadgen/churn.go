// Churn phase (-churn): drive a deterministic fault/heal timeline through
// /v2/plan under concurrent load and verify that every churn step is served
// the plan a fresh server gives its request, whatever the cache held: a
// faulted miss plans from its own request, and a revisited overlay
// (heal-back, flap) hits its own entry.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/mesh"
	"alpacomm/internal/service"
)

// The churn phase's shape. Constants, not flags: each had one value in use.
const (
	churnPeriod  = 150 * time.Millisecond // wall time each timeline step stays active
	churnClients = 8
	churnPasses  = 2 // >1 exercises heal-back cache hits
)

// churnResult is the churn phase's tally plus its check against a fresh
// server.
type churnResult struct {
	scenario string
	steps    int
	classTally
	firstErr string
	churnCheck
}

// churnCheck holds each churn step to the answer a fresh server gives the
// step's request. Safe for concurrent use.
type churnCheck struct {
	want []*service.PlanResponse // by step
	mu   sync.Mutex
	// mismatches counts full-quality replies that differ from want;
	// firstMismatch describes the first.
	mismatches    int
	firstMismatch string
}

// note checks one reply to step k. A degraded reply plans the degraded
// options, which a fresh server without an admission controller never
// serves, so it is not compared; Coalesced depends on timing alone.
func (c *churnCheck) note(k int, got *service.PlanResponse) {
	if got.Degraded {
		return
	}
	g := *got
	g.Coalesced = false
	if reflect.DeepEqual(&g, c.want[k]) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mismatches == 0 {
		c.firstMismatch = fmt.Sprintf("step %d: served order %v senders %v, a fresh server %v %v",
			k, g.Order, g.Senders, c.want[k].Order, c.want[k].Senders)
	}
	c.mismatches++
}

// freshAnswers is what a fresh in-process server, its cache empty, serves
// each request.
func freshAnswers(ctx context.Context, reqs []*service.PlanRequest) ([]*service.PlanResponse, error) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	client := alpacomm.NewPlanClient(ts.URL, nil)
	out := make([]*service.PlanResponse, len(reqs))
	for i, req := range reqs {
		resp, err := client.PlanV2(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("fresh server, step %d: %v", i, err)
		}
		out[i] = resp
	}
	return out, nil
}

// churnTemplate returns the fixed boundary churn traffic replans: 256 units
// on 8 p3 hosts, wide enough that the registry timelines (which down the 0-1
// link) leave detour routes.
func churnTemplate() template {
	return template{name: "p3-churn", topology: service.TopologyRef{Name: "p3", Hosts: 8},
		shape: []int{128, 128, 8},
		src:   service.Endpoint{Mesh: "4x4@0", Spec: "RS01R"}, dst: service.Endpoint{Mesh: "4x4@16", Spec: "S01RR"}}
}

// faultsRefOf converts a validated mesh overlay to its wire form — the
// inverse of the server's resolveFaults. An empty set maps to nil: a
// healed step is a plain healthy request, not an empty overlay.
func faultsRefOf(fs mesh.FaultSet) *service.FaultsRef {
	if fs.Empty() {
		return nil
	}
	ref := &service.FaultsRef{}
	for _, lf := range fs.Links {
		ref.Links = append(ref.Links, service.LinkFaultRef{
			A: lf.A, B: lf.B, Down: lf.Down,
			BandwidthScale:      lf.BandwidthScale,
			ExtraLatencySeconds: lf.ExtraLatency,
		})
	}
	for _, hf := range fs.Hosts {
		ref.Hosts = append(ref.Hosts, service.HostFaultRef{
			Host: hf.Host, NICScale: hf.NICScale, IntraScale: hf.IntraScale,
		})
	}
	return ref
}

// runChurnPhase walks a churn timeline against the server: closed-loop
// agents replan the churn boundary with whatever overlay the clock says is
// active — step k of the timeline holds for churnPeriod, then step k+1.
// The timeline runs churnPasses times so heal-backs and flap revisits
// exercise the cache, and the healthy boundary is planned once up front,
// as in a deployment where the healthy plan was serving before the fault
// arrived. Every reply is checked against a fresh server's (churnCheck).
func runChurnPhase(ctx context.Context, client *alpacomm.PlanClient, scenario string, seed uint64) (*churnResult, error) {
	reg := alpacomm.DefaultTopologyRegistry()
	tmpl := churnTemplate()
	topo, err := reg.Build(tmpl.topology.Name, alpacomm.TopologyParams{Hosts: tmpl.topology.Hosts})
	if err != nil {
		return nil, err
	}
	var tl mesh.ChurnTimeline
	if tl, err = reg.BuildChurnScenario(scenario, topo); err != nil {
		// Not a registry scenario: accept an inline timeline spec, the same
		// notation mesh.ParseChurnTimeline and the README use.
		parsed, perr := mesh.ParseChurnTimeline(scenario)
		if perr != nil {
			return nil, fmt.Errorf("-churn-scenario %q: not a registry scenario (%v) or a timeline spec (%v)", scenario, err, perr)
		}
		if err := parsed.Validate(topo); err != nil {
			return nil, fmt.Errorf("-churn-scenario %q: %v", scenario, err)
		}
		tl = parsed
	}
	fmt.Printf("loadgen: churn phase: scenario %q, %d agents, %v per step, %d pass(es)\n",
		scenario, churnClients, churnPeriod, churnPasses)
	steps := make([]*service.PlanRequest, len(tl.Steps))
	for i, step := range tl.Steps {
		steps[i] = tmpl.planRequest(1, faultsRefOf(step.Faults))
	}
	res := &churnResult{scenario: scenario, steps: len(steps)}
	if res.want, err = freshAnswers(ctx, steps); err != nil {
		return nil, err
	}
	if _, err := client.PlanV2(ctx, tmpl.planRequest(1, nil)); err != nil {
		return nil, fmt.Errorf("healthy plan: %v", err)
	}

	start := time.Now()
	all, _ := drive{
		agents:   churnClients,
		seed:     seed,
		arrivals: closedArrivals,
		next: func(int, *rand.Rand) op {
			k := int(time.Since(start)/churnPeriod) % len(steps)
			return op{class: classPlan, do: func(ctx context.Context) (reply, error) {
				resp, err := client.PlanV2(ctx, steps[k])
				if err != nil {
					return reply{}, err
				}
				res.note(k, resp)
				return reply{coalesced: resp.Coalesced, degraded: resp.Degraded}, nil
			}}
		},
		horizon: time.Duration(churnPasses*len(steps)) * churnPeriod,
	}.run(ctx)
	res.classTally, res.firstErr = all.sum(), all.firstErr
	return res, nil
}
