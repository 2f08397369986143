package netsim

import (
	"math"
	"reflect"
	"testing"

	"alpacomm/internal/mesh"
)

// testCluster returns a cluster with round numbers for exact assertions:
// 2 devices/host, intra 100 B/s, NIC 10 B/s, zero latency.
func testCluster(hosts int) *mesh.HeteroCluster {
	c, err := mesh.NewCluster(hosts, 2, 100, 10, 0, 0)
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

func TestTransferTimes(t *testing.T) {
	n := NewClusterNet(testCluster(2))
	if got := n.TransferTime(0, 1, 100); got != 1.0 {
		t.Errorf("intra-host time = %v, want 1.0", got)
	}
	if got := n.TransferTime(0, 2, 100); got != 10.0 {
		t.Errorf("cross-host time = %v, want 10.0", got)
	}
}

func TestTransferLatency(t *testing.T) {
	c, _ := mesh.NewCluster(2, 2, 100, 10, 0.5, 2.0)
	n := NewClusterNet(c)
	if got := n.TransferTime(0, 1, 100); got != 1.5 {
		t.Errorf("intra time with latency = %v", got)
	}
	if got := n.TransferTime(0, 2, 0); got != 2.0 {
		t.Errorf("zero-byte cross time = %v (signal send/recv must cost latency only)", got)
	}
}

func TestTransferValidation(t *testing.T) {
	n := NewClusterNet(testCluster(1))
	if _, err := n.Transfer(Plain("bad"), 0, 9, 1, 0); err == nil {
		t.Error("invalid destination should fail")
	}
	if _, err := n.Transfer(Plain("bad"), 0, 0, 1, 0); err == nil {
		t.Error("self transfer should fail")
	}
	if _, err := n.Transfer(Plain("bad"), 0, 1, -5, 0); err == nil {
		t.Error("negative size should fail")
	}
}

// TestNICSerialization pins the §3 host-bottleneck property: two devices on
// one host sending cross-host at the same time share the host NIC and
// serialize.
func TestNICSerialization(t *testing.T) {
	n := NewClusterNet(testCluster(2))
	n.MustTransfer(Plain("a"), 0, 2, 100, 0) // host0 -> host1, 10s
	n.MustTransfer(Plain("b"), 1, 3, 100, 1) // also host0 -> host1
	mk, err := n.Run()
	if err != nil || mk != 20 {
		t.Errorf("makespan = %v, %v; want 20 (serialized NIC)", mk, err)
	}
}

// TestFullDuplex pins the full-duplex property: a host can send and receive
// at full bandwidth simultaneously.
func TestFullDuplex(t *testing.T) {
	n := NewClusterNet(testCluster(2))
	n.MustTransfer(Plain("out"), 0, 2, 100, 0) // host0 sends
	n.MustTransfer(Plain("in"), 2, 0, 100, 1)  // host0 receives
	mk, _ := n.Run()
	if mk != 10 {
		t.Errorf("makespan = %v, want 10 (full duplex)", mk)
	}
}

// TestDisjointHostPairs pins the fully-connected fabric property: transfers
// between disjoint host pairs do not interfere.
func TestDisjointHostPairs(t *testing.T) {
	n := NewClusterNet(testCluster(4))
	n.MustTransfer(Plain("a"), 0, 2, 100, 0) // host0 -> host1
	n.MustTransfer(Plain("b"), 4, 6, 100, 1) // host2 -> host3
	mk, _ := n.Run()
	if mk != 10 {
		t.Errorf("makespan = %v, want 10 (independent pairs)", mk)
	}
}

// TestIntraNodeParallelism: intra-host transfers between different device
// pairs proceed in parallel (NVLink is per-device, not shared per host).
func TestIntraNodeParallelism(t *testing.T) {
	c, _ := mesh.NewCluster(1, 4, 100, 10, 0, 0)
	n := NewClusterNet(c)
	n.MustTransfer(Plain("a"), 0, 1, 100, 0)
	n.MustTransfer(Plain("b"), 2, 3, 100, 1)
	mk, _ := n.Run()
	if mk != 1 {
		t.Errorf("makespan = %v, want 1", mk)
	}
}

// TestIntraCrossIndependence: a device sending intra-host does not block
// its host's NIC.
func TestIntraCrossIndependence(t *testing.T) {
	n := NewClusterNet(testCluster(2))
	n.MustTransfer(Plain("nvlink"), 0, 1, 100, 0) // 1s intra
	n.MustTransfer(Plain("nic"), 1, 2, 100, 1)    // 10s cross; device 1 recv is busy 1s but NIC path is separate
	mk, _ := n.Run()
	if math.Abs(mk-10) > 1e-9 {
		t.Errorf("makespan = %v, want 10", mk)
	}
}

func TestTransferWithDeps(t *testing.T) {
	n := NewClusterNet(testCluster(2))
	a := n.MustTransfer(Plain("first"), 0, 2, 100, 0)
	n.MustTransfer(Plain("second"), 2, 0, 100, 1, a) // depends on first
	mk, _ := n.Run()
	if mk != 20 {
		t.Errorf("makespan = %v, want 20 (chained)", mk)
	}
}

// TestTransferAfterRunFails pins the post-Run guard on the transfer path:
// like AddOp, a late transfer returns an error — even when it would need
// resources not yet interned — instead of minting state into a completed
// schedule.
func TestTransferAfterRunFails(t *testing.T) {
	n := NewClusterNet(testCluster(4))
	n.MustTransfer(Plain("a"), 0, 2, 100, 0)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// Devices 4->6 cross hosts never touched before Run, so their NIC
	// resources are not interned yet.
	if _, err := n.Transfer(Plain("late"), 4, 6, 100, 1); err == nil {
		t.Error("transfer after Run should fail")
	}
	if _, err := n.StreamTransfer(Plain("late"), 4, 6, 100, 1); err == nil {
		t.Error("stream transfer after Run should fail")
	}
	// Reset lifts the guard and the replay works.
	n.Reset()
	n.MustTransfer(Plain("b"), 4, 6, 100, 0)
	if mk, err := n.Run(); err != nil || mk != 10 {
		t.Errorf("post-reset run = %v, %v; want 10", mk, err)
	}
}

func TestMustTransferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTransfer should panic on invalid transfer")
		}
	}()
	NewClusterNet(testCluster(1)).MustTransfer(Plain("bad"), 0, 0, 1, 0)
}

// TestStreamTransferSkipsLatency: streamed chunks pay bandwidth only.
func TestStreamTransferSkipsLatency(t *testing.T) {
	c, _ := mesh.NewCluster(2, 2, 100, 10, 0.5, 2.0)
	n := NewClusterNet(c)
	a, err := n.Transfer(Plain("first"), 0, 2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.StreamTransfer(Plain("stream"), 0, 2, 100, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// First: 2.0 latency + 10 transfer; stream: 10 only.
	if got := n.Sim.OpFinish(a); got != 12 {
		t.Errorf("first finish = %v, want 12", got)
	}
	if got := n.Sim.OpFinish(b); got != 22 {
		t.Errorf("stream finish = %v, want 22", got)
	}
	// Intra-host stream skips the intra latency.
	n2 := NewClusterNet(c)
	x, _ := n2.Transfer(Plain("i1"), 0, 1, 100, 0)
	y, _ := n2.StreamTransfer(Plain("i2"), 0, 1, 100, 1, x)
	n2.Run()
	if got := n2.Sim.OpFinish(y) - n2.Sim.OpFinish(x); got != 1.0 {
		t.Errorf("intra stream duration = %v, want 1.0", got)
	}
}

// TestStreamTransferValidation: stream transfers validate like normal ones.
func TestStreamTransferValidation(t *testing.T) {
	n := NewClusterNet(testCluster(1))
	if _, err := n.StreamTransfer(Plain("bad"), 0, 0, 1, 0); err == nil {
		t.Error("self stream transfer should fail")
	}
}

// TestHeteroTransferTimes: per-host bandwidths and fabric oversubscription
// drive transfer durations on a heterogeneous topology.
func TestHeteroTransferTimes(t *testing.T) {
	// Host 0: 2 devices, intra 100 B/s, NIC 10 B/s.
	// Host 1: 2 devices, intra 400 B/s, NIC 40 B/s. Fabric 2:1 oversubscribed.
	hc, err := mesh.NewHeteroCluster([]mesh.HostSpec{
		{Devices: 2, IntraBandwidth: 100, NICBandwidth: 10},
		{Devices: 2, IntraBandwidth: 400, NICBandwidth: 40},
	}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := NewClusterNet(hc)
	if got := n.TransferTime(0, 1, 100); got != 1.0 {
		t.Errorf("slow-host intra time = %v, want 1.0", got)
	}
	if got := n.TransferTime(2, 3, 100); got != 0.25 {
		t.Errorf("fast-host intra time = %v, want 0.25", got)
	}
	// Cross-host: min(10, 40) / 2 = 5 B/s effective.
	if got := n.TransferTime(0, 2, 100); got != 20.0 {
		t.Errorf("cross-host time = %v, want 20.0", got)
	}
	if got := n.TransferTime(2, 0, 100); got != 20.0 {
		t.Errorf("reverse cross-host time = %v, want 20.0", got)
	}
}

// TestHeteroPerHostNICs: NIC striping respects per-host NIC counts — the
// same net view can ride NIC 3 on an 8-NIC host and NIC 1 on a 2-NIC host.
func TestHeteroPerHostNICs(t *testing.T) {
	hc, err := mesh.NewHeteroCluster([]mesh.HostSpec{
		{Devices: 1, IntraBandwidth: 100, NICBandwidth: 10, NICs: 8},
		{Devices: 1, IntraBandwidth: 100, NICBandwidth: 10, NICs: 2},
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := NewClusterNet(hc)
	v := n.OnNIC(3)
	if v.HostSend(0) != n.OnNIC(11).HostSend(0) {
		t.Error("NIC selector must wrap modulo the 8-NIC host's count")
	}
	if v.HostRecv(1) != n.OnNIC(1).HostRecv(1) {
		t.Error("NIC selector must wrap modulo the 2-NIC host's count")
	}
	if v.HostSend(0) == n.OnNIC(4).HostSend(0) {
		t.Error("distinct NICs on one host must be distinct resources")
	}
}

// TestMultiNICParallelism: with 2 NICs per host, two cross-host transfers
// from one host proceed in parallel on distinct NICs.
func TestMultiNICParallelism(t *testing.T) {
	c := withNICs(testCluster(2), 2)
	n := NewClusterNet(c)
	if _, err := n.OnNIC(0).Transfer(Plain("a"), 0, 2, 100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OnNIC(1).Transfer(Plain("b"), 1, 3, 100, 1); err != nil {
		t.Fatal(err)
	}
	mk, err := n.Run()
	if err != nil || mk != 10 {
		t.Errorf("makespan = %v, %v; want 10 (parallel NICs)", mk, err)
	}
	// Same NIC still serializes.
	n2 := NewClusterNet(c)
	n2.OnNIC(1).Transfer(Plain("a"), 0, 2, 100, 0)
	n2.OnNIC(1).Transfer(Plain("b"), 1, 3, 100, 1)
	mk2, _ := n2.Run()
	if mk2 != 20 {
		t.Errorf("same-NIC makespan = %v, want 20", mk2)
	}
	// Modulo wrap: OnNIC(3) on a 2-NIC host is NIC 1.
	if n.OnNIC(3).HostSend(0) != n.OnNIC(1).HostSend(0) {
		t.Error("OnNIC should wrap modulo NIC count")
	}
}

// rebindSchedule issues cross-host and intra-host transfers over every NIC
// the topology has on host 0, so the interned names cover devices, plain
// NIC directions and ":nicK" ones.
func rebindSchedule(t *testing.T, n *ClusterNet) (float64, []Event) {
	t.Helper()
	last := n.Topo.NumDevices() - 1
	for k := 0; k < n.Topo.NICCount(0); k++ {
		if _, err := n.OnNIC(k).Transfer(Plain("x"), 0, last, 100, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Transfer(Plain("i"), 0, 1, 100, 9); err != nil {
		t.Fatal(err)
	}
	mk, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	return mk, n.Sim.Events()
}

// TestRebindMatchesFreshNet: one net rebound from topology to topology —
// multi-NIC before single-NIC, so a kept ":nicK" name would show — times
// and names every schedule as a fresh net does, and keeps its Sim and the
// Sim's arenas throughout.
func TestRebindMatchesFreshNet(t *testing.T) {
	hetero, err := mesh.NewHeteroCluster([]mesh.HostSpec{
		{Devices: 2, IntraBandwidth: 100, NICBandwidth: 10, NICs: 4},
		{Devices: 4, IntraBandwidth: 50, NICBandwidth: 5, NICs: 1},
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	topos := []mesh.Topology{withNICs(testCluster(3), 2), testCluster(3), hetero, testCluster(2), testCluster(2)}
	n := NewClusterNet(topos[0])
	sim := n.Sim
	// Grow the arenas well past what the schedules below need.
	for i := 0; i < 500; i++ {
		n.MustTransfer(Plain("warm"), 0, 2, 1, i)
	}
	ops, res, deps := cap(sim.ops), cap(sim.resArena), cap(sim.depArena)
	for round := 0; round < 2; round++ {
		for i, topo := range topos {
			n.Rebind(topo)
			if n.Sim != sim || cap(sim.ops) != ops || cap(sim.resArena) != res || cap(sim.depArena) != deps {
				t.Fatalf("round %d topology %d: Rebind replaced the Sim or its arenas", round, i)
			}
			if sim.NumOps() != 0 || sim.NumResources() != 0 {
				t.Fatalf("round %d topology %d: Rebind left %d ops, %d resources", round, i, sim.NumOps(), sim.NumResources())
			}
			gotMk, gotEv := rebindSchedule(t, n)
			wantMk, wantEv := rebindSchedule(t, NewClusterNet(topo))
			if gotMk != wantMk || !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("round %d topology %d: rebound net scheduled\n%v %+v\nfresh net\n%v %+v", round, i, gotMk, gotEv, wantMk, wantEv)
			}
		}
	}
}

// TestRebindKeepsInternTable: the intern table survives a change of topology
// wherever its names still hold. Device slots are never rebuilt — they grow
// for a larger cluster and keep their rendered names — and the NIC slots are
// rebuilt only when the per-host NIC counts differ. An independently built
// identical topology is no change at all.
func TestRebindKeepsInternTable(t *testing.T) {
	small := testCluster(3)
	twin := testCluster(3)
	if mesh.Topology(twin) == mesh.Topology(small) || twin.Fingerprint() != small.Fingerprint() {
		t.Fatal("twin must be a distinct instance with the same fingerprint")
	}
	slower, err := mesh.NewCluster(3, 2, 50, 5, 1e-6, 2e-6) // same layout, other speeds
	if err != nil {
		t.Fatal(err)
	}
	wide := withNICs(testCluster(3), 2)
	large := testCluster(5)

	n := NewClusterNet(small)
	chain := []int{0, 1, 2, 5}
	build := func() {
		t.Helper()
		if _, err := n.PipelinedChain("c", chain, 1000, 4, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	build()
	tab := n.ids
	dev0, nic0 := &tab.devSend[0], &tab.hostSend[0]
	if dev0.name != "dev0:send" || nic0.name != "host0:send" {
		t.Fatalf("interned names %q, %q", dev0.name, nic0.name)
	}

	n.Rebind(twin)
	if n.ids != tab || &tab.devSend[0] != dev0 || &tab.hostSend[0] != nic0 || dev0.name != "dev0:send" || nic0.name != "host0:send" {
		t.Fatal("Rebind onto an identical topology rebuilt the intern table")
	}
	if dev0.gen == tab.gen {
		t.Fatal("Rebind onto an identical topology must invalidate handles")
	}
	gotMk, gotEv := rebindSchedule(t, n)
	if wantMk, wantEv := rebindSchedule(t, NewClusterNet(twin)); gotMk != wantMk || !reflect.DeepEqual(gotEv, wantEv) {
		t.Fatalf("net rebound onto an identical topology scheduled\n%v %+v\nfresh net\n%v %+v", gotMk, gotEv, wantMk, wantEv)
	}
	n.Rebind(twin)
	build()

	n.Rebind(slower)
	if n.ids != tab || &tab.devSend[0] != dev0 || &tab.hostSend[0] != nic0 {
		t.Fatal("Rebind onto the same NIC layout rebuilt the intern table")
	}
	if dev0.gen == tab.gen || dev0.name != "dev0:send" || nic0.name != "host0:send" {
		t.Fatalf("Rebind must invalidate handles (gen %d vs %d) and keep names (%q, %q)", dev0.gen, tab.gen, dev0.name, nic0.name)
	}
	build()

	n.Rebind(wide)
	if &tab.devSend[0] != dev0 || dev0.name != "dev0:send" {
		t.Fatal("Rebind onto another NIC layout rebuilt the device slots")
	}
	if len(tab.hostSend) != 6 || tab.hostSend[0].name != "" {
		t.Fatalf("Rebind onto 2 NICs per host kept %d stale NIC slots (first named %q)", len(tab.hostSend), tab.hostSend[0].name)
	}
	build()
	if got := tab.hostSend[0].name; got != "host0:send:nic0" {
		t.Fatalf("multi-NIC slot named %q", got)
	}

	n.Rebind(large)
	if len(tab.devSend) != large.NumDevices() || len(tab.mark) != large.NumDevices() || tab.devSend[0].name != "dev0:send" {
		t.Fatalf("Rebind onto a larger cluster: %d device slots, %d marks, first named %q", len(tab.devSend), len(tab.mark), tab.devSend[0].name)
	}
	chain = []int{9, 0, 8}
	build()
	n.Rebind(small)
	if len(tab.devSend) != large.NumDevices() {
		t.Fatal("Rebind onto a smaller cluster shrank the device slots")
	}
	if _, err := n.PipelinedChain("c", []int{0, 9}, 1000, 1, 0, nil); err == nil {
		t.Fatal("a device of the previous, larger topology must be refused")
	}
}

// TestArenaOverflowIsRefused: ops address the arenas through int32 windows,
// so a reservation that would pass math.MaxInt32 entries — a lattice of too
// many chunks x hops or dependency edges, or any reserve on top of what is
// registered — fails before anything is allocated or registered,
// instead of wrapping.
func TestArenaOverflowIsRefused(t *testing.T) {
	n := NewClusterNet(testCluster(3))
	first := n.MustTransfer(Plain("a"), 0, 2, 10, 0)
	deps := []OpID{first, first, first}
	for name, tc := range map[string]struct {
		chunks int
		deps   []OpID
	}{
		"chunks x hops": {1 << 30, nil},
		"lattice deps":  {1 << 29, nil},
		"caller deps":   {1 << 29, deps},
	} {
		if _, err := n.PipelinedChain("big", []int{0, 2, 4, 1}, 1<<32, tc.chunks, 0, tc.deps); err == nil {
			t.Errorf("%s: a lattice past int32 must be refused", name)
		}
	}
	if err := n.Sim.reserve(math.MaxInt32, 0, 0); err == nil {
		t.Error("reserve past int32 ops must fail")
	}
	if err := n.Sim.reserve(0, math.MaxInt32-1, 0); err == nil {
		t.Error("reserve past int32 resource entries must fail")
	}
	if err := n.Sim.reserve(0, 0, -1); err == nil {
		t.Error("a negative reservation must fail")
	}
	if n.Sim.NumOps() != 1 || cap(n.Sim.ops) > 1024 {
		t.Errorf("refusals left %d ops and an op arena of %d", n.Sim.NumOps(), cap(n.Sim.ops))
	}
	if _, err := n.PipelinedChain("ok", []int{0, 2, 4, 1}, 1<<32, 8, 1, deps); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPipelinedChain registers and runs a 16-chunk broadcast over five
// devices on three hosts, on a net rewound between iterations.
func BenchmarkPipelinedChain(b *testing.B) {
	n := NewClusterNet(mesh.AWSP3Cluster(3))
	chain := []int{0, 4, 5, 8, 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Reset()
		if _, err := n.PipelinedChain("u0/bc", chain, 64<<20, 16, 0, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
