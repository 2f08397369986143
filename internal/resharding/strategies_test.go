package resharding

import (
	"context"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// strategyNet builds a fresh net over the standard micro cluster.
func strategyNet(hosts int) *netsim.ClusterNet {
	return netsim.NewClusterNet(microCluster(hosts))
}

// builderOn wraps a fresh net in a builder, for driving one unit task's
// builder method directly.
func builderOn(net *netsim.ClusterNet) *PlanBuilder {
	return &PlanBuilder{net: net}
}

func TestBuildSendRecvOpsPerReceiver(t *testing.T) {
	net := strategyNet(2)
	done, err := buildSendRecv(net, "u", 0, []int{4, 5, 6}, 1000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Errorf("send/recv should emit one op per receiver, got %d", len(done))
	}
}

func TestLocalAllGatherOnSenderHostIsDirect(t *testing.T) {
	// Receivers on the sender's own host get plain NVLink copies (no
	// scatter+gather round trip).
	net := strategyNet(1)
	done, err := buildLocalAllGather(net, "u", 0, []int{1, 2}, 1000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || net.Sim.NumOps() != 2 {
		t.Errorf("expected 2 direct copies, got %d done / %d ops", len(done), net.Sim.NumOps())
	}
}

func TestLocalAllGatherSingleReceiverHost(t *testing.T) {
	net := strategyNet(2)
	// 3 receivers on host 1: scatter (3 ops) + ring all-gather (2 rounds x
	// 3 devices = 6 ops).
	_, err := buildLocalAllGather(net, "u", 0, []int{4, 5, 6}, 999, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.Sim.NumOps() != 9 {
		t.Errorf("ops = %d, want 9 (3 scatter + 6 all-gather)", net.Sim.NumOps())
	}
}

func TestGlobalAllGatherSingleReceiverFallsBack(t *testing.T) {
	net := strategyNet(2)
	done, err := buildGlobalAllGather(net, "u", 0, []int{4}, 1000, 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || net.Sim.NumOps() != 1 {
		t.Error("single receiver should degenerate to one send")
	}
}

// TestBroadcastBeatsAlpaAcrossHosts pins the Fig. 6 case-7/8 mechanism:
// for multi-host receivers Alpa's staged scatter + cross-node all-gather
// costs ≈ 2t while the pipelined broadcast stays near t.
func TestBroadcastBeatsAlpaAcrossHosts(t *testing.T) {
	recvs := []int{4, 5, 8, 9} // hosts 1 and 2
	run := func(build func(net *netsim.ClusterNet) error) float64 {
		net := strategyNet(3)
		if err := build(net); err != nil {
			t.Fatal(err)
		}
		mk, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	alpa := run(func(net *netsim.ClusterNet) error {
		_, err := buildAlpa(net, "u", 0, recvs, 1000, 4000, 0, nil)
		return err
	})
	bc := run(func(net *netsim.ClusterNet) error {
		_, err := builderOn(net).buildBroadcast(Options{Chunks: 64}, 0, 0, recvs, 4000, 0, nil)
		return err
	})
	if bc*1.5 > alpa {
		t.Errorf("broadcast (%v) should be ≈ 2x faster than staged alpa (%v)", bc, alpa)
	}
}

func TestAlpaSingleHostUnevenFallsBack(t *testing.T) {
	net := strategyNet(2)
	// 1001 elements over 3 receivers on one host: uneven -> send/recv.
	done, err := buildAlpa(net, "u", 0, []int{4, 5, 6}, 1001, 4004, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 || net.Sim.NumOps() != 3 {
		t.Errorf("uneven single-host alpa should fall back to 3 sends, got %d ops", net.Sim.NumOps())
	}
}

func TestBuildUnitOpsUnknownStrategy(t *testing.T) {
	net := strategyNet(1)
	if _, err := buildUnitOps(net, Options{Strategy: Strategy(42)}, "u", 0, []int{1}, 10, 40, 0, nil); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestGroupByHost(t *testing.T) {
	c := microCluster(3)
	groups := groupByHost(c, []int{9, 1, 0, 8, 5})
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0][0] != 0 || groups[0][1] != 1 || groups[1][0] != 5 || groups[2][0] != 8 {
		t.Errorf("groups = %v", groups)
	}
}

func TestSplitBytes(t *testing.T) {
	parts := splitBytes(10, 4)
	var sum int64
	for _, p := range parts {
		sum += p
		if p < 2 || p > 3 {
			t.Errorf("part %d outside near-even range", p)
		}
	}
	if sum != 10 {
		t.Errorf("parts sum to %d", sum)
	}
}

// TestSenderRoundRobin: when a unit task's chosen host holds several
// replicas, consecutive unit tasks rotate the sending device to spread
// intra-host load.
func TestSenderRoundRobin(t *testing.T) {
	c := microCluster(2)
	src, _ := c.Slice([]int{1, 4}, 0)
	dst, _ := c.Slice([]int{1, 4}, 4)
	// RR -> S0R... with a (1,4) mesh, S1 shards over devices: use RR->RS0
	// to get several unit tasks all sent from host 0's replicas.
	task, err := sharding.NewTask(tensor.MustShape(8, 8), tensor.Float32, src, sharding.MustParse("RR"), dst, sharding.MustParse("RS1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Units) < 2 {
		t.Skipf("need >=2 unit tasks, got %d", len(task.Units))
	}
	p, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedNaive})
	if err != nil {
		t.Fatal(err)
	}
	senders := map[int]bool{}
	for _, s := range p.SenderOf {
		senders[s] = true
	}
	if len(senders) < 2 {
		t.Errorf("round-robin should use several sender devices, got %v", p.SenderOf)
	}
}

// TestMultiNICBroadcastHalvesTime pins the §3.1 future-work extension:
// with 2 NICs per host, splitting the unit task across NICs roughly
// doubles cross-host bandwidth.
func TestMultiNICBroadcastHalvesTime(t *testing.T) {
	run := func(nics int) float64 {
		c := withNICs(microCluster(2), nics)
		net := netsim.NewClusterNet(c)
		_, err := builderOn(net).buildBroadcast(Options{Chunks: 64}, 0, 0, []int{4, 5, 6, 7}, 64000, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	one, two := run(1), run(2)
	if two > one*0.6 {
		t.Errorf("2-NIC broadcast (%v) should be ≈ half the 1-NIC time (%v)", two, one)
	}
	four := run(4)
	if four > two*0.6 {
		t.Errorf("4-NIC broadcast (%v) should be ≈ half the 2-NIC time (%v)", four, two)
	}
}

// TestMultiNICRoundTrip: the data plane is unaffected by NIC splitting.
func TestMultiNICRoundTrip(t *testing.T) {
	c := withNICs(microCluster(2), 2)
	src, _ := c.Slice([]int{2, 2}, 0)
	dst, _ := c.Slice([]int{2, 2}, 4)
	task, err := sharding.NewTask(tensor.MustShape(16, 16), tensor.Float32, src, sharding.MustParse("S01R"), dst, sharding.MustParse("S0R"))
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

// referencePlan is NewPlanContext as it was before Draft: every scheduler run
// in one call on the host tasks — the ensemble as schedule.EnsembleNodesStop,
// not as its two steps — then device senders.
func referencePlan(t *testing.T, task *sharding.Task, opts Options) *Plan {
	t.Helper()
	opts = opts.WithDefaults()
	hostTasks := buildHostTasks(task, opts)
	var hostPlan schedule.Plan
	switch opts.Scheduler {
	case SchedNaive:
		hostPlan = schedule.Naive(hostTasks)
	case SchedGreedyLoad:
		hostPlan = schedule.GreedyLoad(hostTasks)
	case SchedLoadBalanceOnly:
		hostPlan = schedule.LoadBalanceOnly(hostTasks)
	case SchedDegraded:
		hostPlan = schedule.GreedyEnsemble(hostTasks)
	case SchedEnsemble:
		hostPlan = schedule.EnsembleNodesStop(hostTasks, opts.DFSNodes, opts.Trials, ensembleRand(opts.Seed), nil)
	}
	senderOf, err := resolveDeviceSenders(task, hostPlan)
	if err != nil {
		t.Fatal(err)
	}
	return &Plan{SenderOf: senderOf, Order: hostPlan.Order}
}

// TestDraftPlanMatchesReference: drafting and then finishing returns the plan
// the one-call path returned, on every registry preset x strategy x scheduler,
// and the draft calls itself proven for every scheduler that has no search.
// The 2x4 boundary spans four hosts on p3 — 64 units the closed-form
// candidates do not prove — and two on the 8-GPU presets, so the ensemble
// rows take both exits.
func TestDraftPlanMatchesReference(t *testing.T) {
	ctx := context.Background()
	ensembleExits := map[bool]int{}
	for _, preset := range mesh.DefaultRegistry().Names() {
		topo, err := mesh.DefaultRegistry().Build(preset, mesh.TopologyParams{Hosts: 4})
		if err != nil {
			t.Fatal(err)
		}
		task := builderTask(t, topo, 0, 8)
		for _, strategy := range []Strategy{SendRecv, LocalAllGather, GlobalAllGather, Broadcast, Alpa, Signal} {
			for _, sched := range []Scheduler{SchedNaive, SchedGreedyLoad, SchedLoadBalanceOnly, SchedEnsemble, SchedDegraded} {
				opts := Options{Strategy: strategy, Scheduler: sched, Chunks: 4, DFSNodes: 5000, Seed: 3}
				d, err := NewDraft(task, opts)
				if err != nil {
					t.Fatal(err)
				}
				proven := d.Proven()
				if sched == SchedEnsemble {
					ensembleExits[proven]++
				} else if !proven {
					t.Errorf("%s %v/%v: a scheduler with no search drafted unproven", preset, strategy, sched)
				}
				got, err := d.Plan(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if want := referencePlan(t, task, opts); !planEqual(got, want) {
					t.Errorf("%s %v/%v: draft then plan diverged from the one-call path\n got %v %v\nwant %v %v",
						preset, strategy, sched, got.SenderOf, got.Order, want.SenderOf, want.Order)
				}
			}
		}
	}
	if ensembleExits[true] == 0 || ensembleExits[false] == 0 {
		t.Errorf("ensemble rows drafted proven %d times and unproven %d: the table should take both exits",
			ensembleExits[true], ensembleExits[false])
	}
}
