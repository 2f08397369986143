package resharding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// microCluster: GPUs like the paper's testbed but with round numbers:
// 4 devices/host, intra 1000 B/s, NIC 10 B/s, zero latency.
func microCluster(hosts int) *mesh.HeteroCluster {
	c, err := mesh.NewCluster(hosts, 4, 1000, 10, 0, 0)
	if err != nil {
		panic(err)
	}
	return c
}

// withNICs returns c with every host's NIC count set to n.
func withNICs(c *mesh.HeteroCluster, n int) *mesh.HeteroCluster {
	hosts := append([]mesh.HostSpec(nil), c.Hosts...)
	for i := range hosts {
		hosts[i].NICs = n
	}
	return mesh.MustHeteroCluster(hosts, c.InterHostLatency, c.Oversubscription)
}

// oneToMany builds the Fig. 5 setting: a single sender device on host 0
// holding a replicated tensor, and n receiver devices on hosts 1.. with a
// replicated destination spec. The tensor has `elements` float32 elements.
func oneToMany(t *testing.T, c *mesh.HeteroCluster, recvDevices []int, rows, cols int) *sharding.Task {
	t.Helper()
	src, err := mesh.NewMesh(c, []int{1, 1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := mesh.NewMesh(c, []int{1, len(recvDevices)}, recvDevices)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(rows, cols), tensor.Float32, src, sharding.MustParse("RR"), dst, sharding.MustParse("RR"))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func simulate(t *testing.T, task *sharding.Task, opts Options) *SimResult {
	t.Helper()
	p, err := NewPlan(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSendRecvScalesWithReceivers pins Fig. 5a's Send/Recv curve: latency
// grows linearly with receiver count.
func TestSendRecvScalesWithReceivers(t *testing.T) {
	c := microCluster(2)
	// 40 x 10 fp32 = 1600 bytes; t = 160 s.
	const tUnit = 160.0
	for n := 1; n <= 4; n++ {
		devs := make([]int, n)
		for i := range devs {
			devs[i] = 4 + i
		}
		task := oneToMany(t, c, devs, 40, 10)
		res := simulate(t, task, Options{Strategy: SendRecv, Scheduler: SchedNaive})
		want := float64(n) * tUnit
		if math.Abs(res.Makespan-want) > 1e-6 {
			t.Errorf("n=%d: send/recv makespan = %v, want %v", n, res.Makespan, want)
		}
	}
}

// TestBroadcastFlatAcrossReceivers pins Fig. 5a/5b's "Ours" curve: the
// broadcast completes in ≈ t regardless of receiver count or host count.
func TestBroadcastFlatAcrossReceivers(t *testing.T) {
	const tUnit = 160.0
	// 5a: one receiver host, 1-4 GPUs.
	c := microCluster(2)
	for n := 1; n <= 4; n++ {
		devs := make([]int, n)
		for i := range devs {
			devs[i] = 4 + i
		}
		task := oneToMany(t, c, devs, 40, 10)
		res := simulate(t, task, Options{Strategy: Broadcast, Chunks: 16})
		if res.Makespan < tUnit || res.Makespan > tUnit*1.15 {
			t.Errorf("5a n=%d: broadcast makespan = %v, want ≈ %v", n, res.Makespan, tUnit)
		}
	}
	// 5b: 1-4 receiver hosts, 2 GPUs each.
	c = microCluster(5)
	for a := 1; a <= 4; a++ {
		var devs []int
		for h := 1; h <= a; h++ {
			devs = append(devs, h*4, h*4+1)
		}
		task := oneToMany(t, c, devs, 40, 10)
		res := simulate(t, task, Options{Strategy: Broadcast, Chunks: 32})
		if res.Makespan < tUnit || res.Makespan > tUnit*1.2 {
			t.Errorf("5b hosts=%d: broadcast makespan = %v, want ≈ %v", a, res.Makespan, tUnit)
		}
	}
}

// TestAlpaUnevenFallback pins the Fig. 5 "sudden performance drop": with 3
// receivers the slice does not divide evenly, Alpa falls back to send/recv
// and slows down ~3x, while broadcast is unaffected.
func TestAlpaUnevenFallback(t *testing.T) {
	c := microCluster(2)
	// 40 x 10 = 400 elements: divisible by 2 and 4, not by 3.
	mk := func(n int, s Strategy) float64 {
		devs := make([]int, n)
		for i := range devs {
			devs[i] = 4 + i
		}
		return simulate(t, oneToMany(t, c, devs, 40, 10), Options{Strategy: s, Scheduler: SchedGreedyLoad}).Makespan
	}
	even := mk(2, Alpa)
	uneven := mk(3, Alpa)
	if uneven < 2.5*even {
		t.Errorf("alpa at n=3 should collapse to send/recv: even=%v uneven=%v", even, uneven)
	}
	if b := mk(3, Broadcast); b > 1.2*even {
		t.Errorf("broadcast must handle uneven partitions natively: %v vs %v", b, even)
	}
}

// TestAlpaMultiHostDegrades pins §5.1.1: once the receiver mesh spans
// several hosts, Alpa's all-gather crosses slow links and costs ≈ 2t,
// while the pipelined broadcast stays at ≈ t.
func TestAlpaMultiHostDegrades(t *testing.T) {
	c := microCluster(3)
	devs := []int{4, 5, 8, 9} // hosts 1 and 2, 2 GPUs each
	task := oneToMany(t, c, devs, 40, 10)
	alpa := simulate(t, task, Options{Strategy: Alpa, Scheduler: SchedGreedyLoad}).Makespan
	ours := simulate(t, task, Options{Strategy: Broadcast, Chunks: 32}).Makespan
	if alpa < 1.5*ours {
		t.Errorf("alpa (%v) should be ≈ 2x broadcast (%v) for multi-host receivers", alpa, ours)
	}
}

// TestSchedulingOrderMatters reproduces the Fig. 6 case-3 phenomenon: four
// unit tasks between two sender hosts and two receiver hosts; the naive
// order makes both senders target the same receiver first (one idles),
// while the ensemble finds the 2-round packing.
func TestSchedulingOrderMatters(t *testing.T) {
	c := microCluster(4)
	src, _ := c.Slice([]int{2, 4}, 0)
	dst, _ := c.Slice([]int{2, 4}, 8)
	task, err := sharding.NewTask(tensor.MustShape(64, 64), tensor.Float32, src, sharding.MustParse("RS0"), dst, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Units) != 4 {
		t.Fatalf("expected 4 unit tasks, got %d", len(task.Units))
	}
	naive, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedNaive, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	ours, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Chunks: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nm, _ := naive.Simulate()
	om, _ := ours.Simulate()
	if om.Makespan >= nm.Makespan {
		t.Errorf("ensemble (%v) should beat naive order (%v)", om.Makespan, nm.Makespan)
	}
	// The packed schedule uses both sender NICs: effective bandwidth above
	// a single NIC's 10 B/s * 8 = 80 bits/s... compare in ratio instead.
	if nm.Makespan/om.Makespan < 1.4 {
		t.Errorf("expected ≈ 1.5x gain from ordering, got %v", nm.Makespan/om.Makespan)
	}
}

// TestHostMakespanMatchesSim: the Eq. 1-3 host-level objective should agree
// with the chunk-level simulation within pipelining slack.
func TestHostMakespanMatchesSim(t *testing.T) {
	c := microCluster(4)
	src, _ := c.Slice([]int{2, 4}, 0)
	dst, _ := c.Slice([]int{2, 4}, 8)
	task, _ := sharding.NewTask(tensor.MustShape(64, 64), tensor.Float32, src, sharding.MustParse("RS0"), dst, sharding.MustParse("S0R"))
	p, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Chunks: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	host, err := p.HostMakespan()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Makespan < host*0.99 || sim.Makespan > host*1.3 {
		t.Errorf("sim makespan %v vs host-level estimate %v", sim.Makespan, host)
	}
}

// TestSignalStrategyIsCheap: the Signal upper bound moves one byte per
// receiver and completes essentially immediately.
func TestSignalStrategyIsCheap(t *testing.T) {
	c := microCluster(2)
	task := oneToMany(t, c, []int{4, 5, 6, 7}, 40, 10)
	res := simulate(t, task, Options{Strategy: Signal})
	real := simulate(t, task, Options{Strategy: Broadcast})
	if res.Makespan > real.Makespan/50 {
		t.Errorf("signal makespan %v should be negligible vs %v", res.Makespan, real.Makespan)
	}
}

func TestPlanRejectsMismatchedClusters(t *testing.T) {
	// The clusters must differ in hardware, not just in instance:
	// SameTopology treats independently built identical topologies as one
	// (fingerprint fallback), and planning across those is well-defined.
	c1, c2 := microCluster(2), microCluster(3)
	src, _ := c1.Slice([]int{1, 1}, 0)
	dst, _ := c2.Slice([]int{1, 1}, 4)
	task, err := sharding.NewTask(tensor.MustShape(8, 8), tensor.Float32, src, sharding.MustParse("RR"), dst, sharding.MustParse("RR"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(task, Options{}); err == nil {
		t.Error("meshes on different clusters should be rejected")
	}
}

func TestStrategyAndSchedulerStrings(t *testing.T) {
	for _, s := range []Strategy{SendRecv, LocalAllGather, GlobalAllGather, Broadcast, Alpa, Signal, Strategy(99)} {
		if s.String() == "" {
			t.Errorf("empty name for %d", int(s))
		}
	}
	for _, s := range []Scheduler{SchedNaive, SchedGreedyLoad, SchedLoadBalanceOnly, SchedEnsemble, Scheduler(99)} {
		if s.String() == "" {
			t.Errorf("empty name for %d", int(s))
		}
	}
}

func TestPlanUnknownScheduler(t *testing.T) {
	c := microCluster(2)
	task := oneToMany(t, c, []int{4}, 8, 8)
	if _, err := NewPlan(task, Options{Scheduler: Scheduler(42)}); err == nil {
		t.Error("unknown scheduler should be rejected")
	}
}

// TestExecuteCorrectness: the data plane delivers exactly the right bytes
// for the paper's Figure 2 tasks.
func TestExecuteCorrectness(t *testing.T) {
	c := microCluster(2)
	meshA, _ := c.Slice([]int{2, 2}, 0)
	meshB, _ := c.Slice([]int{2, 2}, 4)
	task, err := sharding.NewTask(tensor.MustShape(4, 4), tensor.Float32, meshA, sharding.MustParse("S01R"), meshB, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(task, Options{Strategy: Broadcast})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RoundTrip(p); err != nil {
		t.Fatal(err)
	}
}

// Property: for random spec pairs and every strategy/scheduler combination,
// plan + execute delivers correct bytes to every destination device, and
// the simulation produces a positive finite makespan.
func TestRoundTripProperty(t *testing.T) {
	specs := []string{"RR", "S0R", "S1R", "RS0", "RS1", "S0S1", "S1S0", "S01R", "RS01"}
	strategies := []Strategy{SendRecv, LocalAllGather, GlobalAllGather, Broadcast, Alpa}
	schedulers := []Scheduler{SchedNaive, SchedGreedyLoad, SchedLoadBalanceOnly, SchedEnsemble}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := microCluster(4)
		src, _ := c.Slice([]int{2, 2}, r.Intn(2)) // may straddle host boundary? 2x2 from 0 or 1
		dst, _ := c.Slice([]int{2, 2}, 8+r.Intn(2))
		shape := tensor.MustShape(4+2*r.Intn(15), 4+2*r.Intn(15))
		task, err := sharding.NewTask(shape, tensor.Float32, src,
			sharding.MustParse(specs[r.Intn(len(specs))]), dst, sharding.MustParse(specs[r.Intn(len(specs))]))
		if err != nil {
			return false
		}
		opts := Options{
			Strategy:  strategies[r.Intn(len(strategies))],
			Scheduler: schedulers[r.Intn(len(schedulers))],
			Seed:      seed,
		}
		p, err := NewPlan(task, opts)
		if err != nil {
			return false
		}
		res, err := RoundTrip(p)
		if err != nil {
			return false
		}
		return res.Makespan > 0 && !math.IsInf(res.Makespan, 0) && !math.IsNaN(res.Makespan)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: broadcast is never slower than naive send/recv, for any
// random resharding (the §3.1 dominance claim).
func TestBroadcastDominatesSendRecv(t *testing.T) {
	specs := []string{"RR", "S0R", "RS0", "S0S1", "S01R"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := microCluster(4)
		src, _ := c.Slice([]int{2, 2}, 0)
		dst, _ := c.Slice([]int{2, 2}, 8)
		shape := tensor.MustShape(16+2*r.Intn(8), 16+2*r.Intn(8))
		task, err := sharding.NewTask(shape, tensor.Float32, src,
			sharding.MustParse(specs[r.Intn(len(specs))]), dst, sharding.MustParse(specs[r.Intn(len(specs))]))
		if err != nil {
			return false
		}
		pb, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: seed, Chunks: 16})
		if err != nil {
			return false
		}
		ps, err := NewPlan(task, Options{Strategy: SendRecv, Scheduler: SchedEnsemble, Seed: seed})
		if err != nil {
			return false
		}
		rb, err1 := pb.Simulate()
		rs, err2 := ps.Simulate()
		if err1 != nil || err2 != nil {
			return false
		}
		return rb.Makespan <= rs.Makespan*1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
