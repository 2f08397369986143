package collective

import (
	"math"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// fig3Cluster builds the §3.1 analysis setting: one sender host plus A
// receiver hosts, B devices each, NIC bandwidth 10 B/s, effectively free
// intra-host links, zero latency. Sending the full object (1000 B) across
// one NIC takes t = 100 s.
func fig3Cluster(aPlusOne, b int) *mesh.HeteroCluster {
	c, err := mesh.NewCluster(aPlusOne, b, 1e12, 10, 0, 0)
	if err != nil {
		panic(err)
	}
	return c
}

const (
	fig3Bytes = int64(1000)
	fig3T     = 100.0 // fig3Bytes / NIC bandwidth
)

// receivers lists the devices of hosts 1..A (host 0 is the sender's).
func fig3Receivers(c *mesh.HeteroCluster) []int {
	var out []int
	for h := 1; h < c.HostCount(); h++ {
		out = append(out, c.DevicesOnHost(h)...)
	}
	return out
}

// TestSendRecvLatency pins Fig. 3a: naive send/recv to A×B receivers costs
// A·B·t on the sender's NIC.
func TestSendRecvLatency(t *testing.T) {
	for _, cfg := range []struct{ a, b int }{{1, 2}, {2, 2}, {3, 4}} {
		c := fig3Cluster(cfg.a+1, cfg.b)
		net := netsim.NewClusterNet(c)
		for i, dst := range fig3Receivers(c) {
			if _, err := P2P(net, "sr", 0, dst, fig3Bytes, i); err != nil {
				t.Fatal(err)
			}
		}
		mk, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := float64(cfg.a*cfg.b) * fig3T
		if math.Abs(mk-want) > 1e-6 {
			t.Errorf("A=%d B=%d: send/recv makespan = %v, want %v", cfg.a, cfg.b, mk, want)
		}
	}
}

// TestLocalAllGatherLatency pins Fig. 3b: scatter 1/B to each device of
// each receiver host, then a per-host all-gather on fast links: total ≈ A·t.
func TestLocalAllGatherLatency(t *testing.T) {
	for _, cfg := range []struct{ a, b int }{{2, 2}, {3, 2}, {2, 4}} {
		c := fig3Cluster(cfg.a+1, cfg.b)
		net := netsim.NewClusterNet(c)
		seq := 0
		for h := 1; h <= cfg.a; h++ {
			devs := c.DevicesOnHost(h)
			part := chunkSizes(fig3Bytes, cfg.b)
			startDeps := map[int][]netsim.OpID{}
			for i, dst := range devs {
				id, err := net.Transfer(netsim.Plain("scatter"), 0, dst, part[i], seq)
				if err != nil {
					t.Fatal(err)
				}
				startDeps[dst] = []netsim.OpID{id}
				seq++
			}
			if _, err := RingAllGather(net, "ag", devs, fig3Bytes, seq, startDeps); err != nil {
				t.Fatal(err)
			}
		}
		mk, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := float64(cfg.a) * fig3T
		// Intra-host all-gather adds a vanishing amount.
		if mk < want || mk > want*1.01 {
			t.Errorf("A=%d B=%d: local all-gather makespan = %v, want ≈ %v", cfg.a, cfg.b, mk, want)
		}
	}
}

// TestGlobalAllGatherLatency pins Fig. 3c: scatter 1/(A·B) to every device,
// then one global ring all-gather: total ≈ 2t regardless of A and B.
func TestGlobalAllGatherLatency(t *testing.T) {
	for _, cfg := range []struct{ a, b int }{{2, 2}, {4, 2}, {2, 4}} {
		c := fig3Cluster(cfg.a+1, cfg.b)
		net := netsim.NewClusterNet(c)
		recvs := fig3Receivers(c)
		n := len(recvs)
		part := chunkSizes(fig3Bytes, n)
		startDeps := map[int][]netsim.OpID{}
		for i, dst := range recvs {
			id, err := net.Transfer(netsim.Plain("scatter"), 0, dst, part[i], i)
			if err != nil {
				t.Fatal(err)
			}
			startDeps[dst] = []netsim.OpID{id}
		}
		ring := RingOrder(c, recvs)
		if _, err := RingAllGather(net, "ag", ring, fig3Bytes, n, startDeps); err != nil {
			t.Fatal(err)
		}
		mk, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		// ≈ 2t: t to scatter + (n-1)/n·t per crossing NIC, pipelined.
		if mk < 1.4*fig3T || mk > 2.6*fig3T {
			t.Errorf("A=%d B=%d: global all-gather makespan = %v, want ≈ %v", cfg.a, cfg.b, mk, 2*fig3T)
		}
	}
}

// TestBroadcastLatency pins Fig. 3d: the pipelined broadcast completes in
// t·(K + hops)/K ≈ t, independent of the number of receiver hosts.
func TestBroadcastLatency(t *testing.T) {
	for _, cfg := range []struct{ a, b int }{{1, 2}, {2, 2}, {4, 2}, {3, 4}} {
		c := fig3Cluster(cfg.a+1, cfg.b)
		net := netsim.NewClusterNet(c)
		chain := BroadcastOrder(c, 0, fig3Receivers(c))
		const k = 100
		if _, _, err := BroadcastChain(net, "bc", chain, fig3Bytes, k, 0); err != nil {
			t.Fatal(err)
		}
		mk, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		upper := fig3T * (1 + float64(cfg.a)/k) * 1.05
		if mk < fig3T-1e-6 || mk > upper {
			t.Errorf("A=%d B=%d: broadcast makespan = %v, want in [t, %v]", cfg.a, cfg.b, mk, upper)
		}
	}
}

// TestBroadcastBeatsAlternatives is the §3.1 ordering claim: broadcast ≤
// global all-gather ≤ local all-gather ≤ send/recv for multi-host receivers.
func TestBroadcastBeatsAlternatives(t *testing.T) {
	const a, b = 4, 2
	run := func(build func(net *netsim.ClusterNet, c *mesh.HeteroCluster)) float64 {
		c := fig3Cluster(a+1, b)
		net := netsim.NewClusterNet(c)
		build(net, c)
		mk, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	tSR := run(func(net *netsim.ClusterNet, c *mesh.HeteroCluster) {
		for i, dst := range fig3Receivers(c) {
			net.MustTransfer(netsim.Plain("sr"), 0, dst, fig3Bytes, i)
		}
	})
	tBC := run(func(net *netsim.ClusterNet, c *mesh.HeteroCluster) {
		chain := BroadcastOrder(c, 0, fig3Receivers(c))
		if _, _, err := BroadcastChain(net, "bc", chain, fig3Bytes, 100, 0); err != nil {
			t.Fatal(err)
		}
	})
	if !(tBC < tSR) {
		t.Errorf("broadcast (%v) should beat send/recv (%v)", tBC, tSR)
	}
	if tSR/tBC < float64(a*b)*0.9 {
		t.Errorf("broadcast speedup = %v, want ≈ %d", tSR/tBC, a*b)
	}
}

func TestBroadcastChainValidation(t *testing.T) {
	c := fig3Cluster(2, 2)
	net := netsim.NewClusterNet(c)
	if _, _, err := BroadcastChain(net, "bc", []int{0}, 100, 4, 0); err == nil {
		t.Error("single-device chain should fail")
	}
	if _, _, err := BroadcastChain(net, "bc", []int{0, 0}, 100, 4, 0); err == nil {
		t.Error("duplicate devices should fail")
	}
	if _, _, err := BroadcastChain(net, "bc", []int{0, 2}, 100, 0, 0); err == nil {
		t.Error("zero chunks should fail")
	}
	if _, _, err := BroadcastChain(net, "bc", []int{0, 99}, 100, 4, 0); err == nil {
		t.Error("invalid device should fail")
	}
	// The other per-chain checks: a repeat further down the chain, a device
	// below zero, a negative size, deps naming ops that do not exist.
	if _, _, err := BroadcastChain(net, "bc", []int{0, 2, 3, 2}, 100, 4, 0); err == nil {
		t.Error("a device listed twice should fail")
	}
	if _, _, err := BroadcastChain(net, "bc", []int{0, -1}, 100, 4, 0); err == nil {
		t.Error("negative device should fail")
	}
	if _, _, err := BroadcastChain(net, "bc", []int{0, 2}, -1, 4, 0); err == nil {
		t.Error("negative size should fail")
	}
	if _, _, err := BroadcastChain(net, "bc", []int{0, 2}, 100, 4, 0, 0); err == nil {
		t.Error("a dependency on an op not yet added should fail")
	}
	if _, _, err := BroadcastChain(net, "bc", []int{0, 2}, 100, 4, 0, -1); err == nil {
		t.Error("a negative dependency should fail")
	}
	if n := net.Sim.NumOps(); n != 0 {
		t.Errorf("refused chains left %d ops behind", n)
	}
	// A refusal costs nothing: the net still takes a valid chain, and
	// refuses everything once it has run.
	if _, _, err := BroadcastChain(net, "bc", []int{0, 2}, 100, 4, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := BroadcastChain(net, "bc", []int{1, 3}, 100, 4, 0); err == nil {
		t.Error("a chain added after Run should fail")
	}
}

func TestBroadcastTinyMessage(t *testing.T) {
	// Requesting more chunks than bytes collapses to one chunk.
	c := fig3Cluster(2, 2)
	net := netsim.NewClusterNet(c)
	_, k, err := BroadcastChain(net, "bc", []int{0, 2, 3}, 3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 || net.Sim.NumOps() != 2 {
		t.Errorf("tiny message should use 1 chunk x 2 hops, got %d chunks, %d ops", k, net.Sim.NumOps())
	}
}

func TestBroadcastDoneAt(t *testing.T) {
	c := fig3Cluster(3, 1)
	net := netsim.NewClusterNet(c)
	first, k, err := BroadcastChain(net, "bc", []int{0, 1, 2}, fig3Bytes, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	// Device 1 (mid-chain) finishes before device 2 (end of chain).
	mid, tail := ChainDone(first, k, 2, 0), ChainDone(first, k, 2, 1)
	if !(net.Sim.OpFinish(mid) < net.Sim.OpFinish(tail)) {
		t.Error("mid-chain device should finish before the chain tail")
	}
	if k != 10 || int(tail) != net.Sim.NumOps()-1 || net.Sim.OpLabel(tail) != "bc/c9/h1" {
		t.Errorf("chain tail is done at op %d (%s) of %d", tail, net.Sim.OpLabel(tail), net.Sim.NumOps())
	}
}

func TestRingAllGatherValidation(t *testing.T) {
	c := fig3Cluster(2, 2)
	net := netsim.NewClusterNet(c)
	if _, err := RingAllGather(net, "ag", []int{0}, 100, 0, nil); err == nil {
		t.Error("single device should fail")
	}
	if _, err := RingAllGather(net, "ag", []int{0, 0}, 100, 0, nil); err == nil {
		t.Error("duplicate devices should fail")
	}
}

func TestRingAllGatherCompletes(t *testing.T) {
	// 4 devices on one host, free links except they serialize per device:
	// every device must receive n-1 chunks.
	c, _ := mesh.NewCluster(1, 4, 100, 10, 0, 0)
	net := netsim.NewClusterNet(c)
	res, err := RingAllGather(net, "ag", []int{0, 1, 2, 3}, 400, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each round moves 100 B at 100 B/s = 1 s; 3 rounds pipelined = 3 s.
	if math.Abs(mk-3) > 1e-9 {
		t.Errorf("makespan = %v, want 3", mk)
	}
	if len(res.DoneAt) != 4 {
		t.Errorf("DoneAt covers %d devices", len(res.DoneAt))
	}
}

func TestRingAllReduce(t *testing.T) {
	c, _ := mesh.NewCluster(1, 4, 100, 10, 0, 0)
	net := netsim.NewClusterNet(c)
	res, err := RingAllReduce(net, "ar", []int{0, 1, 2, 3}, 400, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2(n-1) = 6 rounds of 1 s.
	if math.Abs(mk-6) > 1e-9 {
		t.Errorf("all-reduce makespan = %v, want 6", mk)
	}
	if len(res.DoneAt) != 4 {
		t.Errorf("DoneAt covers %d devices", len(res.DoneAt))
	}
	if _, err := RingAllReduce(net, "ar", []int{0}, 100, 0, nil); err == nil {
		t.Error("single device should fail")
	}
}

func TestAllToAll(t *testing.T) {
	c, _ := mesh.NewCluster(1, 4, 100, 10, 0, 0)
	net := netsim.NewClusterNet(c)
	res, err := AllToAll(net, "a2a", []int{0, 1, 2, 3}, 100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each device sends 3 messages of 1 s serially on its send link.
	if math.Abs(mk-3) > 1e-9 {
		t.Errorf("all-to-all makespan = %v, want 3", mk)
	}
	if n := net.Sim.NumOps(); n != 12+4 {
		t.Errorf("ops = %d, want 12 sends and 4 joins", n)
	}
	if len(res.DoneAt) != 4 {
		t.Errorf("DoneAt covers %d devices", len(res.DoneAt))
	}
	if _, err := AllToAll(net, "a2a", []int{0}, 100, 0, nil); err == nil {
		t.Error("single device should fail")
	}
}

func TestChunkSizes(t *testing.T) {
	s := chunkSizes(10, 3)
	if s[0]+s[1]+s[2] != 10 {
		t.Errorf("chunks must sum to total: %v", s)
	}
	for _, v := range s {
		if v < 3 || v > 4 {
			t.Errorf("chunk %d outside near-even range: %v", v, s)
		}
	}
}

func TestDefaultChunks(t *testing.T) {
	if DefaultChunks(1000) != 1 {
		t.Errorf("small message chunks = %d", DefaultChunks(1000))
	}
	if DefaultChunks(1<<30) != 128 {
		t.Errorf("1GB chunks = %d, want capped at 128", DefaultChunks(1<<30))
	}
	if got := DefaultChunks(40 << 20); got != 10 {
		t.Errorf("40MiB chunks = %d, want 10", got)
	}
}

func TestBroadcastOrder(t *testing.T) {
	c := mesh.AWSP3Cluster(3) // 4 devices per host
	// Sender on host 0, receivers spread over hosts 0, 1, 2.
	chain := BroadcastOrder(c, 1, []int{9, 4, 2, 8, 5})
	want := []int{1, 2, 4, 5, 8, 9}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

func TestRingOrder(t *testing.T) {
	c := mesh.AWSP3Cluster(2)
	ring := RingOrder(c, []int{5, 0, 4, 1})
	want := []int{0, 1, 4, 5}
	for i := range want {
		if ring[i] != want[i] {
			t.Fatalf("ring = %v, want %v", ring, want)
		}
	}
}
