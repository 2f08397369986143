// Churn phase (-churn): drive a deterministic fault/heal timeline through
// /v2/plan under concurrent load and verify the server serves the churn
// warm — every degraded step warmed from the cached healthy twin, every
// revisited overlay (heal-back, flap) from the cache, no step cold.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// The churn phase's shape. Constants, not flags: each had one value in use.
const (
	churnPeriod  = 150 * time.Millisecond // wall time each timeline step stays active
	churnClients = 8
	churnPasses  = 2 // >1 exercises heal-back cache hits
)

// churnResult is the churn phase's tally plus the server's replan-counter
// delta over the phase.
type churnResult struct {
	scenario string
	steps    int
	classTally
	firstErr string
	// delta is ReplanStats(after) - ReplanStats(before): only fills the
	// churn phase itself caused.
	delta resharding.ReplanStats
}

// churnTemplate returns the fixed boundary churn traffic replans: 256 units
// on 8 p3 hosts, wide enough that the registry timelines (which down the 0-1
// link) leave detour routes. Its drafts must search, healthy or faulted:
// only such a miss is handed its fault-free twin, so a boundary the
// closed-form candidates prove would never replan warm.
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
// exercise the cache, and the healthy boundary is planned once up front so
// the very first degraded step already has an incumbent to warm from.
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

	// The healthy incumbent: one warm-up plan so step 0 warms instead of
	// going cold, mirroring a real deployment where the healthy plan was
	// serving before the fault arrived.
	if _, err := client.PlanV2(ctx, tmpl.planRequest(1, nil)); err != nil {
		return nil, fmt.Errorf("healthy warm-up: %v", err)
	}
	before, err := client.Stats(ctx)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	all, _ := drive{
		agents:   churnClients,
		seed:     seed,
		arrivals: closedArrivals,
		next: func(int, *rand.Rand) op {
			return planOp(classPlan, client, steps[int(time.Since(start)/churnPeriod)%len(steps)])
		},
		horizon: time.Duration(churnPasses*len(steps)) * churnPeriod,
	}.run(ctx)

	after, err := client.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return &churnResult{
		scenario: scenario, steps: len(steps),
		classTally: all.sum(), firstErr: all.firstErr,
		delta: resharding.ReplanStats{
			CacheHits:    after.Replan.CacheHits - before.Replan.CacheHits,
			WarmIdentity: after.Replan.WarmIdentity - before.Replan.WarmIdentity,
			WarmSearch:   after.Replan.WarmSearch - before.Replan.WarmSearch,
			WarmInvalid:  after.Replan.WarmInvalid - before.Replan.WarmInvalid,
			Cold:         after.Replan.Cold - before.Replan.Cold,
		},
	}, nil
}
