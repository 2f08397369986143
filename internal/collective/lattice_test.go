package collective

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// referenceBroadcastChain is BroadcastChain as it was before the lattice
// emitter: one Transfer or StreamTransfer per (chunk, hop), dependencies
// threaded through prev/upstream. It is the oracle the emitter is held to —
// same ops under the same ids, labels, resources and durations.
func referenceBroadcastChain(net *netsim.ClusterNet, label string, chain []int, bytes int64, chunks, seq int, deps ...netsim.OpID) (*Result, error) {
	if len(chain) < 2 {
		return nil, fmt.Errorf("collective: broadcast chain needs >= 2 devices, got %d", len(chain))
	}
	if err := validateDevices(net.Topo, chain); err != nil {
		return nil, err
	}
	if chunks < 1 {
		return nil, fmt.Errorf("collective: chunk count %d < 1", chunks)
	}
	if bytes < int64(chunks) {
		chunks = 1 // tiny message: no point pipelining
	}
	sizes := chunkSizes(bytes, chunks)
	hops := len(chain) - 1
	res := &Result{DoneAt: make(map[int]netsim.OpID, hops)}
	// prev[j] is the op of the previous chunk on hop j (pipeline ordering);
	// upstream is the op delivering the current chunk to chain[j].
	prev := make([]netsim.OpID, hops)
	havePrev := false
	var depBuf []netsim.OpID // reused per op; AddOp copies into its arena
	for i := 0; i < chunks; i++ {
		var upstream netsim.OpID
		haveUp := false
		for j := 0; j < hops; j++ {
			d := depBuf[:0]
			if haveUp {
				d = append(d, upstream) // chunk i arrived at chain[j]
			} else {
				d = append(d, deps...) // sender readiness
			}
			if havePrev {
				d = append(d, prev[j]) // chunk i-1 left this hop
			}
			depBuf = d
			// The first chunk pays the route's latency; later chunks are
			// streamed on the established route.
			xfer := net.Transfer
			if i > 0 {
				xfer = net.StreamTransfer
			}
			lbl := netsim.Label{Prefix: label, Kind: netsim.LabelChunkHop, A: int32(i), B: int32(j)}
			id, err := xfer(lbl, chain[j], chain[j+1], sizes[i], seq, d...)
			if err != nil {
				return nil, err
			}
			prev[j] = id
			upstream = id
			haveUp = true
		}
		havePrev = true
	}
	// Each device is done when the final chunk arrives.
	for j := 0; j < hops; j++ {
		res.DoneAt[chain[j+1]] = prev[j]
	}
	return res, nil
}

// latticeCase is one differential scenario: up to two chains registered back
// to back on one net view, the second gated on the first's completion ops.
type latticeCase struct {
	topo   mesh.Topology
	nic    int
	chains [][]int
	bytes  int64
	chunks int
	// warm is the number of plain transfers registered first and handed to
	// the first chain as its deps.
	warm int
}

func (c latticeCase) String() string {
	return fmt.Sprintf("%v nic %d chains %v bytes %d chunks %d warm %d", c.topo, c.nic, c.chains, c.bytes, c.chunks, c.warm)
}

// chainFn registers one chain and returns the completion op of each chain
// position past the sender.
type chainFn func(net *netsim.ClusterNet, label string, chain []int, bytes int64, chunks, seq int, deps []netsim.OpID) ([]netsim.OpID, error)

func referenceChain(net *netsim.ClusterNet, label string, chain []int, bytes int64, chunks, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	res, err := referenceBroadcastChain(net, label, chain, bytes, chunks, seq, deps...)
	if err != nil {
		return nil, err
	}
	done := make([]netsim.OpID, 0, len(chain)-1)
	for _, d := range chain[1:] {
		done = append(done, res.DoneAt[d])
	}
	return done, nil
}

func latticeChain(net *netsim.ClusterNet, label string, chain []int, bytes int64, chunks, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	first, k, err := BroadcastChain(net, label, chain, bytes, chunks, seq, deps...)
	if err != nil {
		return nil, err
	}
	hops := len(chain) - 1
	done := make([]netsim.OpID, 0, hops)
	for j := 0; j < hops; j++ {
		done = append(done, ChainDone(first, k, hops, j))
	}
	return done, nil
}

// latticeRun is everything a scenario leaves observable.
type latticeRun struct {
	err      bool
	done     [][]netsim.OpID
	numOps   int
	makespan uint64
	events   []netsim.Event
}

// run plays the scenario on a fresh net through one of the two builders.
func (c latticeCase) run(build chainFn) (latticeRun, error) {
	var out latticeRun
	base := netsim.NewClusterNet(c.topo)
	net := base.OnNIC(c.nic)
	var deps []netsim.OpID
	for i := 0; i < c.warm; i++ {
		// Device 0 to the last device and back: cross-host wherever the
		// topology has two hosts, on the base view like an earlier unit task.
		last := c.topo.NumDevices() - 1
		src, dst := 0, last
		if i%2 == 1 {
			src, dst = last, 0
		}
		id, err := base.Transfer(netsim.Plain("warm"), src, dst, int64(1000*(i+1)), i)
		if err != nil {
			return out, err
		}
		deps = append(deps, id)
	}
	for i, chain := range c.chains {
		done, err := build(net, fmt.Sprintf("bc%d", i), chain, c.bytes, c.chunks, c.warm+i, deps)
		if err != nil {
			out.err = true
			return out, nil
		}
		out.done = append(out.done, done)
		deps = done
	}
	out.numOps = net.Sim.NumOps()
	mk, err := net.Run()
	if err != nil {
		return out, err
	}
	out.makespan = math.Float64bits(mk)
	out.events = net.Sim.Events()
	return out, nil
}

// check holds the emitter to the reference on one scenario.
func (c latticeCase) check(t *testing.T) {
	t.Helper()
	want, err := c.run(referenceChain)
	if err != nil {
		t.Fatalf("%v: reference: %v", c, err)
	}
	got, err := c.run(latticeChain)
	if err != nil {
		t.Fatalf("%v: lattice: %v", c, err)
	}
	if got.err != want.err {
		t.Fatalf("%v: lattice refused = %v, reference refused = %v", c, got.err, want.err)
	}
	if got.err {
		return
	}
	if !reflect.DeepEqual(got.done, want.done) {
		t.Fatalf("%v: completion ops %v, reference %v", c, got.done, want.done)
	}
	if got.numOps != want.numOps || got.makespan != want.makespan {
		t.Fatalf("%v: %d ops, makespan bits %#x; reference %d ops, %#x", c, got.numOps, got.makespan, want.numOps, want.makespan)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		for i := range want.events {
			if i >= len(got.events) || !reflect.DeepEqual(got.events[i], want.events[i]) {
				t.Fatalf("%v: event %d differs: %+v, reference %+v", c, i, got.events[i], want.events[i])
			}
		}
		t.Fatalf("%v: %d events, reference %d", c, len(got.events), len(want.events))
	}
}

// latticeTopologies are the three families plans are served on: single-NIC
// p3, 8-NIC dgx-a100 and the mixed fabric, four hosts each.
func latticeTopologies() []mesh.Topology {
	return []mesh.Topology{mesh.AWSP3Cluster(4), mesh.DGXA100Cluster(4), mesh.MixedP3DGXCluster(2, 2, 2)}
}

// maxNICs is the largest per-host NIC count of a topology.
func maxNICs(t mesh.Topology) int {
	nics := 1
	for h := 0; h < t.HostCount(); h++ {
		nics = max(nics, t.NICCount(h))
	}
	return nics
}

// drawChain picks n distinct devices spread over exactly `span` hosts, in a
// random order — any valid chain, not only the ones BroadcastOrder builds —
// or nil when the topology cannot seat them.
func drawChain(rng *rand.Rand, t mesh.Topology, n, span int) []int {
	hosts := rng.Perm(t.HostCount())[:span]
	pools := make([][]int, span)
	room := 0
	for i, h := range hosts {
		pools[i] = t.DevicesOnHost(h)
		rng.Shuffle(len(pools[i]), func(a, b int) { pools[i][a], pools[i][b] = pools[i][b], pools[i][a] })
		room += len(pools[i])
	}
	if n < span || n > room {
		return nil
	}
	var chain []int
	for i := range pools { // one device from every host first
		chain, pools[i] = append(chain, pools[i][0]), pools[i][1:]
	}
	for len(chain) < n {
		i := rng.Intn(span)
		if len(pools[i]) == 0 {
			continue
		}
		chain, pools[i] = append(chain, pools[i][0]), pools[i][1:]
	}
	rng.Shuffle(len(chain), func(a, b int) { chain[a], chain[b] = chain[b], chain[a] })
	return chain
}

// TestBroadcastChainMatchesReference is the differential oracle of the
// lattice emitter: over chains of 2-9 devices spanning 1-4 hosts of every
// topology family, pipelining depths from none to more chunks than bytes,
// sizes from nothing to 1 GiB, with and without dependencies and with a
// second chain gated on the first, a net built by BroadcastChain holds the
// same ops — ids, labels, resources, starts and finishes — as one built op by
// op.
func TestBroadcastChainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := 0
	for _, topo := range latticeTopologies() {
		nics := maxNICs(topo)
		for n := 2; n <= 9; n++ {
			for span := 1; span <= 4; span++ {
				first := drawChain(rng, topo, n, span)
				if first == nil {
					continue
				}
				second := drawChain(rng, topo, 2+rng.Intn(8), 1+rng.Intn(4))
				for _, chunks := range []int{1, 2, 7, 128, -1} {
					for _, bytes := range []int64{0, 1, -1, 1000003, 1 << 30} {
						c := latticeCase{topo: topo, nic: cases % nics, chains: [][]int{first}, bytes: bytes, chunks: chunks}
						if c.bytes < 0 { // one byte short of a byte per chunk
							c.bytes = int64(max(c.chunks, 7)) - 1
						}
						if c.chunks < 0 { // more chunks than bytes
							c.chunks = int(c.bytes) + 1
						}
						if cases%2 == 1 {
							c.warm = 3
						}
						if second != nil && cases%3 == 0 {
							c.chains = append(c.chains, second)
						}
						c.check(t)
						cases++
					}
				}
			}
		}
	}
	if cases < 1500 {
		t.Fatalf("only %d scenarios ran", cases)
	}
}

// TestBroadcastChainMatchesReferenceOnEveryNIC walks one cross-host chain
// through every OnNIC view of the multi-NIC topologies, past the NIC count
// too (views wrap modulo each host's count).
func TestBroadcastChainMatchesReferenceOnEveryNIC(t *testing.T) {
	for _, topo := range latticeTopologies()[1:] {
		last := topo.NumDevices() - 1
		chain := []int{0, last, 1, last - 1, topo.DevicesOnHost(1)[0]}
		for k := -1; k <= maxNICs(topo)+1; k++ {
			latticeCase{topo: topo, nic: k, chains: [][]int{chain, {last, 0}}, bytes: 1<<20 + 1, chunks: 7, warm: 2}.check(t)
		}
	}
}

// FuzzBroadcastChainMatchesReference holds the emitter to the reference on
// arbitrary tuples — chains with repeated and invalid devices included, which
// both must refuse.
func FuzzBroadcastChainMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 4, 5, 8}, int64(1<<20), 4, uint8(0))
	f.Add(uint8(1), uint8(3), []byte{0, 9, 17, 25, 1}, int64(1000003), 7, uint8(2))
	f.Add(uint8(2), uint8(1), []byte{3, 8, 2, 20}, int64(5), 128, uint8(3))
	f.Add(uint8(1), uint8(0), []byte{1, 1}, int64(10), 1, uint8(0))
	f.Add(uint8(0), uint8(0), []byte{16, 2}, int64(-3), 2, uint8(1))
	f.Fuzz(func(t *testing.T, topoSel, nic uint8, devs []byte, bytes int64, chunks int, warm uint8) {
		topos := latticeTopologies()
		topo := topos[int(topoSel)%len(topos)]
		if len(devs) > 12 || chunks > 512 || bytes > 1<<40 {
			t.Skip()
		}
		chain := make([]int, len(devs))
		for i, d := range devs {
			chain[i] = int(d) % (topo.NumDevices() + 1) // NumDevices itself is invalid
		}
		c := latticeCase{topo: topo, nic: int(nic), chains: [][]int{chain}, bytes: bytes, chunks: chunks, warm: int(warm % 4)}
		if len(chain) >= 4 {
			c.chains = [][]int{chain[:len(chain)/2], chain[len(chain)/2:]}
		}
		c.check(t)
	})
}
