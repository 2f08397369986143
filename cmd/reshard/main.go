// Command reshard plans, simulates and verifies a single cross-mesh
// resharding task described on the command line, printing the unit-task
// decomposition (Fig. 2 / Appendix B), the schedule, and a network
// timeline.
//
// Example (the paper's Figure 2, Task 1):
//
//	reshard -shape 4,4 -src-spec S01R -dst-spec S0R \
//	        -src-mesh 2x2@0 -dst-mesh 2x2@4 -hosts 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
	"alpacomm/internal/trace"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "reshard: "+format+"\n", args...)
	os.Exit(1)
}

// parseShape parses "4,4" into a tensor shape.
func parseShape(s string) (tensor.Shape, error) {
	parts := strings.Split(s, ",")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		dims = append(dims, v)
	}
	return tensor.NewShape(dims...)
}

func main() {
	shapeStr := flag.String("shape", "4,4", "global tensor shape, e.g. 4,4")
	srcSpec := flag.String("src-spec", "S01R", "source sharding spec")
	dstSpec := flag.String("dst-spec", "S0R", "destination sharding spec")
	srcMesh := flag.String("src-mesh", "2x2@0", "source mesh as ROWSxCOLS@FIRSTDEV")
	dstMesh := flag.String("dst-mesh", "2x2@4", "destination mesh")
	topology := flag.String("topology", "p3", "hardware topology preset: p3, dgx-a100, mixed")
	hosts := flag.Int("hosts", 2, "host count (0 = preset default; mixed: half p3, half DGX)")
	oversub := flag.Float64("oversub", 1, "fabric oversubscription (mixed topology)")
	strategy := flag.String("strategy", "broadcast", "send-recv, local-allgather, global-allgather, broadcast, alpa, signal")
	scheduler := flag.String("scheduler", "ensemble", "naive, greedy-load, loadbalance, ensemble")
	faults := flag.String("faults", "", `degrade the topology and re-plan: a named scenario (link-down, brownout, straggler) or a fault spec like "link:0-1:down;host:1:nic=0.25"`)
	showTimeline := flag.Bool("timeline", true, "print the network timeline")
	timeout := flag.Duration("timeout", 0, "abort planning after this long (0 = no limit); the deadline reaches inside the DFS")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	shape, err := parseShape(*shapeStr)
	if err != nil {
		fail("bad shape: %v", err)
	}
	registry := alpacomm.DefaultTopologyRegistry()
	cluster, err := registry.Build(*topology,
		alpacomm.TopologyParams{Hosts: *hosts, Oversubscription: *oversub})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("topology: %v\n", cluster)
	src, err := mesh.ParseSlice(cluster, *srcMesh)
	if err != nil {
		fail("bad src mesh: %v", err)
	}
	dst, err := mesh.ParseSlice(cluster, *dstMesh)
	if err != nil {
		fail("bad dst mesh: %v", err)
	}
	sspec, err := sharding.Parse(*srcSpec)
	if err != nil {
		fail("bad src spec: %v", err)
	}
	dspec, err := sharding.Parse(*dstSpec)
	if err != nil {
		fail("bad dst spec: %v", err)
	}

	task, err := sharding.NewTask(shape, tensor.Float32, src, sspec, dst, dspec)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(task)
	fmt.Println("\nUnit communication tasks (Appendix B decomposition):")
	for _, u := range task.Units {
		fmt.Printf("  #%d slice %v  senders %v -> receivers %v (%d bytes)\n",
			u.Index, u.Slice, u.Senders, u.Receivers, u.Bytes(task.DType))
	}

	opts := resharding.Options{Seed: 1}
	if opts.Strategy, err = resharding.ParseStrategy(*strategy); err != nil {
		fail("%v", err)
	}
	if opts.Scheduler, err = resharding.ParseScheduler(*scheduler); err != nil {
		fail("%v", err)
	}

	planner := alpacomm.NewPlanner(
		alpacomm.WithTopology(cluster),
		alpacomm.WithDefaultPlanOptions(opts),
	)
	plan, _, err := planner.Plan(ctx, task, opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fail("planning exceeded the -timeout budget of %v", *timeout)
		}
		fail("%v", err)
	}
	fmt.Printf("\nPlan: %v\n  launch order %v\n  senders %v\n", plan, plan.Order, plan.SenderOf)

	res, err := resharding.RoundTrip(plan)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("\nData plane: every destination device verified correct.\n")
	fmt.Printf("Simulated completion: %.6fs, effective bandwidth %.2f Gbps, %d ops\n",
		res.Makespan, res.EffectiveGbps, res.NumOps)
	if *showTimeline {
		fmt.Println("\nNetwork timeline:")
		fmt.Print(trace.Gantt(res.Events, nil, 100))
	}

	if *faults != "" {
		// Replan-on-degrade: the healthy plan above is cached in the
		// session; the same boundary re-planned under the overlay lands in
		// its own cache partition.
		var fs alpacomm.FaultSet
		if isScenario := func() bool {
			for _, n := range registry.FaultScenarioNames() {
				if n == *faults {
					return true
				}
			}
			return false
		}(); isScenario {
			// A known scenario that fails to build (e.g. link-down on 2
			// hosts) must report the topology problem, not fall through to
			// the spec parser and mask it.
			var err error
			if fs, err = registry.BuildFaultScenario(*faults, cluster); err != nil {
				fail("%v", err)
			}
		} else {
			var err error
			if fs, err = alpacomm.ParseFaultSet(*faults); err != nil {
				fail("bad -faults %q: not a scenario name (have %s) or a fault spec: %v",
					*faults, strings.Join(registry.FaultScenarioNames(), ", "), err)
			}
		}
		degPlan, degSim, err := planner.ReplanDegraded(ctx, task, opts, fs)
		if err != nil {
			fail("replan under faults: %v", err)
		}
		fmt.Printf("\nDegraded topology (-faults %s): %d link fault(s), %d straggler host(s)\n",
			*faults, len(fs.Links), len(fs.Hosts))
		fmt.Printf("Degraded plan: %v\n  launch order %v\n  senders %v\n", degPlan, degPlan.Order, degPlan.SenderOf)
		fmt.Printf("Degraded completion: %.6fs (healthy %.6fs, %+.1f%%), effective bandwidth %.2f Gbps\n",
			degSim.Makespan, res.Makespan, 100*(degSim.Makespan-res.Makespan)/res.Makespan, degSim.EffectiveGbps)

		// Replan latency: a from-scratch plan of the degraded boundary
		// against the replan the serving session above ran with the healthy
		// plan in hand. Both return the same plan.
		degTask, err := task.OnTopology(mesh.MustFaulted(cluster, fs))
		if err != nil {
			fail("rebind under faults: %v", err)
		}
		start := time.Now()
		if _, err := resharding.NewPlanContext(ctx, degTask, opts); err != nil {
			fail("cold replan under faults: %v", err)
		}
		coldLatency := time.Since(start)
		start = time.Now()
		_, _, warmInfo, err := resharding.WarmReplanContext(ctx, degTask, opts, task, plan)
		if err != nil {
			fail("replan under faults: %v", err)
		}
		warmLatency := time.Since(start)
		fmt.Printf("\nReplan (%d of %d units impacted, mode %s): %v with the healthy plan, %v cold\n",
			warmInfo.ImpactedUnits, warmInfo.TotalUnits, warmInfo.Mode, warmLatency, coldLatency)

		if *showTimeline {
			fmt.Println("\nDegraded network timeline:")
			fmt.Print(trace.Gantt(degSim.Events, nil, 100))
		}
	}
}
