package netsim

import (
	"math"
	"math/rand"
	"testing"

	"alpacomm/internal/mesh"
)

// latticeRoutes are the device chains fuzzLattices draws from, on a cluster
// of three hosts with four devices and four NICs each (host h holds devices
// 4h..4h+3).
var latticeRoutes = [...][]int{
	{0, 4, 5},       // one cross-host hop, then a device hop
	{0, 4, 5, 6, 7}, // one cross-host hop, then three device hops
	{1, 5, 9},       // a relay: host 1 receives and sends on
	{4, 8, 10},      // host 1's NIC again, as another unit's sender
	{0, 1, 2},       // device hops only
	{0, 4, 1, 5},    // host 0's send side on hops 0 and 2
	{9, 8},          // one device hop
}

// latticeBytes are the message sizes fuzzLattices draws from: zero bytes
// (zero-length chunks), fewer bytes than chunks, one-byte remainders and
// sizes that split evenly.
var latticeBytes = [...]int64{0, 1, 3, 41, 64, 1000, 1001, 4096}

// latticeCluster is fuzzLattices' cluster: some latency, so that a later
// chunk's duration is rounded through it, or none, so that zero-byte chunks
// take no time.
func latticeCluster(latency bool) mesh.Topology {
	intra, inter := 0.0, 0.0
	if latency {
		intra, inter = 0.25, 1.0/3
	}
	c, err := mesh.NewCluster(3, 4, 100, 10, intra, inter)
	if err != nil {
		panic(err)
	}
	return withNICs(c, 4)
}

// fuzzLattices builds an op graph from data on latticeCluster: a header
// byte, then four bytes per step. A step adds a plain op (a duration, a
// seq, one device or NIC resource or none, and up to two dependencies on
// any earlier op, lattice interiors included), one pipelined chain, or a
// group of two to five NIC lanes over one route that share the gate deps.
// A group with one seq is one PipelinedLanes call, as the broadcast of a
// multi-NIC unit issues it; a group with a seq per lane is one
// OnNIC(k).PipelinedChain call per lane. A fifth lane wraps onto the first
// one's NIC 0, lanes may each take their own chunk count, and a lane with
// fewer bytes than chunks may be sent as one chunk, as BroadcastChain sends
// it.
func fuzzLattices(s *Sim, data []byte) {
	latency := len(data) > 0 && data[0]&1 != 0
	if len(data) > 0 {
		data = data[1:]
	}
	topo := latticeCluster(latency)
	n := &ClusterNet{Sim: s, Topo: topo, ids: newResourceTable(topo)}
	var deps []OpID
	pickDeps := func(b byte) []OpID {
		deps = deps[:0]
		for k := 0; k < int(b%3) && s.NumOps() > 0; k++ {
			deps = append(deps, OpID((int(b>>2)*31+k*17)%s.NumOps()))
		}
		return deps
	}
	for step := 0; len(data) >= 4 && step < 12; step++ {
		kind, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		route := latticeRoutes[int(a)%len(latticeRoutes)]
		bytes := latticeBytes[int(a>>3)%len(latticeBytes)]
		chunks := 1 + int(b%5)
		seq := int(b>>5) % 3
		switch kind % 4 {
		case 0:
			var res []ResourceID
			switch c % 3 {
			case 1:
				res = []ResourceID{n.DeviceSend(route[1])}
			case 2:
				res = []ResourceID{n.OnNIC(int(c >> 6)).HostRecv(1)}
			}
			s.MustAddOp(Plain("op"), fuzzDurations[a%8], seq, res, pickDeps(c>>2)...)
		case 1:
			if _, err := n.OnNIC(int(c>>6)).PipelinedChain("chain", route, bytes, chunks, seq, pickDeps(c)); err != nil {
				panic(err)
			}
		default:
			lanes := make([]Lane, 2+int(c%4))
			gate := append([]OpID(nil), pickDeps(c>>3)...)
			for k := range lanes {
				part := int64(k+1)*bytes/int64(len(lanes)) - int64(k)*bytes/int64(len(lanes))
				laneChunks := chunks
				if kind&8 != 0 {
					laneChunks = 1 + (int(b)+k)%5
				}
				if kind&4 != 0 && part < int64(laneChunks) {
					laneChunks = 1
				}
				lanes[k] = Lane{Prefix: "lane" + itoa(int32(k)), Bytes: part, Chunks: laneChunks}
			}
			if kind%4 == 2 {
				if _, err := n.PipelinedLanes(route, lanes, seq, gate); err != nil {
					panic(err)
				}
				continue
			}
			for k, l := range lanes {
				if _, err := n.OnNIC(k).PipelinedChain(l.Prefix, route, l.Bytes, l.Chunks, seq+k, gate); err != nil {
					panic(err)
				}
			}
		}
	}
}

// FuzzLatticesMatchHeap holds Run to expand + runHeap on graphs of
// lattices, lane groups and plain ops: every op's start and finish, every
// resource's BusyUntil and BusyTime and the makespan, bit for bit.
func FuzzLatticesMatchHeap(f *testing.F) {
	f.Add([]byte{1, 2, 57, 3, 2})                           // four lanes, one seq, shared device hops
	f.Add([]byte{1, 3, 57, 3, 1, 2, 57, 3, 2})              // lanes with a seq each, then one seq
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 2, 0, 0, 3, 1, 10})   // zero-byte chains, a plain op on interiors
	f.Add([]byte{1, 1, 58, 4, 0, 2, 59, 4, 1})              // a relay and another unit on its NIC
	f.Add([]byte{1, 1, 54, 3, 0, 6, 46, 3, 1, 2, 20, 7, 3}) // a resource on two hops, one-byte remainders
	f.Add([]byte{1, 10, 57, 3, 3})                          // five lanes, a chunk count each, the fifth on NIC 0
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRunMatchesHeap(t, func(s *Sim) { fuzzLattices(s, data) })
	})
}

// TestLatticesMatchHeapOnRandomGraphs is FuzzLatticesMatchHeap over seeded
// random graphs, and checks that both paths are taken often enough to be
// covered.
func TestLatticesMatchHeapOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	paths := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+4*(1+rng.Intn(8)))
		rng.Read(data)
		paths[checkRunMatchesHeap(t, func(s *Sim) { fuzzLattices(s, data) })]++
	}
	if paths[true] < 100 || paths[false] < 100 {
		t.Fatalf("the pass finished %d times and gave up %d times of 2000", paths[true], paths[false])
	}
}

// nanLatency is a cluster whose cross-host latency is NaN, a topology
// mesh.NewHeteroCluster refuses to build.
type nanLatency struct{ *mesh.HeteroCluster }

func (nanLatency) InterLatency(int, int) float64 { return math.NaN() }

// TestLatticeRefusesNaNDuration: a chain whose chunks would take NaN is
// refused at registration, as AddOp refuses a NaN duration, through every
// builder, and leaves no op registered.
func TestLatticeRefusesNaNDuration(t *testing.T) {
	n := NewClusterNet(nanLatency{testCluster(2)})
	if _, err := n.PipelinedChain("chain", []int{0, 2, 3}, 800, 4, 0, nil); err == nil {
		t.Error("a chain over a NaN latency must be refused")
	}
	if _, err := n.PipelinedLanes([]int{0, 2, 3}, lanesOf(2, 800, 4), 0, nil); err == nil {
		t.Error("lanes over a NaN latency must be refused")
	}
	if _, err := n.Transfer(Plain("t"), 0, 2, 800, 0); err == nil {
		t.Error("a transfer over a NaN latency must be refused")
	}
	if n.Sim.NumOps() != 0 {
		t.Errorf("refusals left %d ops", n.Sim.NumOps())
	}
}
