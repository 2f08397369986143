package resharding

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// Property-based fuzzing of the degraded-topology scenario engine. Two
// seeds drive deterministic generators (so the corpus replays bit-
// identically): one shapes a random heterogeneous topology plus a random
// stage boundary, the other a random fault overlay. The properties:
//
//  1. Replayability — any valid (topology, overlay, boundary) triple
//     yields a plan that simulates in netsim without error.
//  2. Determinism — planning and simulating twice is byte-identical.
//  3. Monotonicity — the degraded plan, replayed transfer-for-transfer
//     on the healthy base topology, never gets slower: every overlay only
//     scales bandwidth down, adds latency, or detours a down link with
//     bandwidth capped at (and latency floored at) the direct link's, so
//     the degraded makespan can never beat the healthy replay. This is
//     the rigorous form of "bandwidth-only degradations never beat the
//     healthy makespan": the comparison holds the plan fixed, which is
//     what makes it provable (the generator keeps every host single-NIC
//     and plans with the broadcast strategy, so all resource-sharing ops
//     are dependency-ordered and netsim's makespan is monotone in
//     per-transfer durations).
//  4. Identity — the empty overlay leaves the canonical cache key
//     byte-identical to the unwrapped topology's.
//  5. Purity — a replan holding the healthy plan (WarmReplanContext)
//     returns the cold plan of the degraded task, in every mode.
//
// Run the seeded corpus with `go test`; explore with
// `go test -fuzz FuzzDegradedPlan -fuzztime 10s ./internal/resharding`.

// fuzzTopology derives a 2-4 host single-NIC heterogeneous cluster from
// the rng: per-host device counts and bandwidth tiers vary, NIC counts
// stay 1 (see property 3 above).
func fuzzTopology(rng *rand.Rand) *mesh.HeteroCluster {
	hosts := 2 + rng.Intn(3)
	intraTiers := []float64{50e9, 150e9, 600e9}
	nicTiers := []float64{1.25e9, 3.125e9, 12.5e9, 25e9}
	specs := make([]mesh.HostSpec, hosts)
	for h := range specs {
		specs[h] = mesh.HostSpec{
			Devices:        1 + rng.Intn(4),
			IntraBandwidth: intraTiers[rng.Intn(len(intraTiers))],
			IntraLatency:   float64(rng.Intn(3)) * 2e-6,
			NICBandwidth:   nicTiers[rng.Intn(len(nicTiers))],
			NICs:           1,
		}
	}
	oversubs := []float64{1, 1.5, 2}
	return mesh.MustHeteroCluster(specs, float64(1+rng.Intn(3))*10e-6, oversubs[rng.Intn(len(oversubs))])
}

// fuzzBoundary derives a random stage boundary on the topology: two
// disjoint contiguous device runs viewed as rank-1 meshes, a small 2-d
// tensor, and random (possibly uneven) spec pairs. Returns nil when the
// topology is too small for two meshes.
func fuzzBoundary(rng *rand.Rand, topo mesh.Topology, tb testing.TB) *sharding.Task {
	d := topo.NumDevices()
	if d < 2 {
		return nil
	}
	srcN := 1 + rng.Intn(d-1)
	dstN := 1 + rng.Intn(d-srcN)
	src, err := topo.Slice([]int{srcN}, 0)
	if err != nil {
		tb.Fatalf("src slice: %v", err)
	}
	dst, err := topo.Slice([]int{dstN}, srcN)
	if err != nil {
		tb.Fatalf("dst slice: %v", err)
	}
	dims := []int{8, 12, 16, 24, 64}
	shape := tensor.MustShape(dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))])
	specNames := []string{"RR", "S0R", "RS0"}
	srcSpec := sharding.MustParse(specNames[rng.Intn(len(specNames))])
	dstSpec := sharding.MustParse(specNames[rng.Intn(len(specNames))])
	task, err := sharding.NewTask(shape, tensor.Float32, src, srcSpec, dst, dstSpec)
	if err != nil {
		// Some random spec pairs are unbuildable; the generator just
		// declines them.
		return nil
	}
	return task
}

// fuzzFaultSet derives a random overlay: per-pair link faults (scaled,
// latency-inflated, or — when the fabric can detour — down) and per-host
// straggler faults. Every generated fault degrades something, but the
// set may still be rejected by NewFaulted (e.g. down links isolating a
// host); callers skip those.
func fuzzFaultSet(rng *rand.Rand, hosts int) mesh.FaultSet {
	scales := []float64{0.25, 0.5, 0.75}
	var fs mesh.FaultSet
	for a := 0; a < hosts; a++ {
		for b := a + 1; b < hosts; b++ {
			switch rng.Intn(5) {
			case 0:
				if hosts >= 3 {
					fs.Links = append(fs.Links, mesh.LinkFault{A: a, B: b, Down: true})
				}
			case 1:
				fs.Links = append(fs.Links, mesh.LinkFault{A: a, B: b, BandwidthScale: scales[rng.Intn(len(scales))]})
			case 2:
				fs.Links = append(fs.Links, mesh.LinkFault{
					A: a, B: b,
					BandwidthScale: scales[rng.Intn(len(scales))],
					ExtraLatency:   float64(1+rng.Intn(5)) * 10e-6,
				})
			}
		}
	}
	for h := 0; h < hosts; h++ {
		if rng.Intn(3) == 0 {
			fs.Hosts = append(fs.Hosts, mesh.HostFault{
				Host:       h,
				NICScale:   scales[rng.Intn(len(scales))],
				IntraScale: scales[rng.Intn(len(scales))],
			})
		}
	}
	return fs
}

func FuzzDegradedPlan(f *testing.F) {
	for _, seed := range [][2]int64{
		{1, 1}, {2, 7}, {3, 13}, {5, 77}, {8, 123}, {11, 999}, {42, 4242}, {17, 31},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, topoSeed, faultSeed int64) {
		trng := rand.New(rand.NewSource(topoSeed))
		topo := fuzzTopology(trng)
		task := fuzzBoundary(trng, topo, t)
		if task == nil {
			t.Skip("unbuildable boundary")
		}
		frng := rand.New(rand.NewSource(faultSeed))
		fs := fuzzFaultSet(frng, topo.HostCount())
		ft, err := mesh.NewFaulted(topo, fs)
		if err != nil {
			t.Skip("overlay rejected (e.g. down links isolate a host)")
		}
		opts := Options{
			Strategy: Broadcast, Scheduler: SchedEnsemble,
			Seed: faultSeed, DFSNodes: 2000, Trials: 8, Chunks: 4,
		}.WithDefaults()

		degTask, err := task.OnTopology(ft)
		if err != nil {
			t.Fatalf("rebind onto overlay: %v", err)
		}

		// 1. Replayability.
		plan, err := NewPlan(degTask, opts)
		if err != nil {
			t.Fatalf("degraded plan: %v (topo %v, faults %q)", err, topo, fs.Canonical())
		}
		sim, err := plan.Simulate()
		if err != nil {
			t.Fatalf("degraded simulate: %v (topo %v, faults %q)", err, topo, fs.Canonical())
		}

		// 2. Determinism.
		plan2, err := NewPlan(degTask, opts)
		if err != nil {
			t.Fatal(err)
		}
		sim2, err := plan2.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.SenderOf, plan2.SenderOf) || !reflect.DeepEqual(plan.Order, plan2.Order) {
			t.Fatalf("degraded plan not deterministic (faults %q)", fs.Canonical())
		}
		if sim.Makespan != sim2.Makespan || sim.NumOps != sim2.NumOps {
			t.Fatalf("degraded simulation not deterministic: %g/%d vs %g/%d",
				sim.Makespan, sim.NumOps, sim2.Makespan, sim2.NumOps)
		}

		// 3. Monotonicity: the identical schedule on the healthy base can
		// only be faster (or equal).
		healthyReplay := &Plan{Task: task, Opts: opts, SenderOf: plan.SenderOf, Order: plan.Order}
		baseSim, err := healthyReplay.Simulate()
		if err != nil {
			t.Fatalf("healthy replay: %v", err)
		}
		if baseSim.Makespan > sim.Makespan {
			t.Fatalf("degraded makespan %.12g beats the healthy replay %.12g (faults %q)",
				sim.Makespan, baseSim.Makespan, fs.Canonical())
		}

		// 4. Identity: an empty overlay leaves the cache key untouched.
		emptyWrap, err := mesh.NewFaulted(topo, mesh.FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		idTask, err := task.OnTopology(emptyWrap)
		if err != nil {
			t.Fatal(err)
		}
		if CacheKey(idTask, opts) != CacheKey(task, opts) {
			t.Fatal("empty overlay changed the canonical cache key")
		}

		// 5. Purity: a replan that holds the healthy plan returns the cold
		// plan of the degraded task, whatever mode it takes.
		healthy, err := NewPlan(task, opts)
		if err != nil {
			t.Fatalf("healthy plan: %v", err)
		}
		replan, _, info, err := WarmReplanContext(context.Background(), degTask, opts, task, healthy)
		if err != nil {
			t.Fatalf("replan: %v (faults %q)", err, fs.Canonical())
		}
		if !planEqual(replan, plan) {
			t.Fatalf("%s-mode replan differs from the cold plan (topo %v, faults %q)\n got: %v %v\nwant: %v %v",
				info.Mode, topo, fs.Canonical(), replan.Order, replan.SenderOf, plan.Order, plan.SenderOf)
		}
	})
}
