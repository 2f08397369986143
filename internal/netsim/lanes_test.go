package netsim

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"alpacomm/internal/mesh"
)

// laneCase is one PipelinedLanes call, after a plain op that interns a
// resource of its own and gives the lanes a dependency.
type laneCase struct {
	name  string
	topo  mesh.Topology
	chain []int
	lanes []Lane
	deps  []OpID
	ran   bool // Run the plain op before the lanes
}

// buildLanes registers c on a fresh net, through PipelinedLanes or through
// one OnNIC(k).PipelinedChain call per lane, stopping at the first error as
// a caller of the calls would.
func buildLanes(c laneCase, oneCall bool) (*ClusterNet, OpID, error) {
	n := NewClusterNet(c.topo)
	n.Sim.MustAddOp(Label{Prefix: "pre"}, 0.5, 0, []ResourceID{n.DeviceRecv(c.chain[0])})
	if c.ran {
		if _, err := n.Run(); err != nil {
			panic(err)
		}
	}
	if oneCall {
		first, err := n.PipelinedLanes(c.chain, c.lanes, 3, c.deps)
		return n, first, err
	}
	var first OpID
	for k, l := range c.lanes {
		id, err := n.OnNIC(k).PipelinedChain(l.Prefix, c.chain, l.Bytes, l.Chunks, 3, c.deps)
		if err != nil {
			return n, 0, err
		}
		if k == 0 {
			first = id
		}
	}
	return n, first, nil
}

// lanesOf returns k lanes of a message of the given size split as the
// broadcast splits it, each in the given number of chunks.
func lanesOf(k int, bytes int64, chunks int) []Lane {
	out := make([]Lane, k)
	for i := range out {
		out[i] = Lane{
			Prefix: "u0/bc.nic" + strconv.Itoa(i),
			Bytes:  int64(i+1)*bytes/int64(k) - int64(i)*bytes/int64(k),
			Chunks: chunks,
		}
	}
	return out
}

// TestPipelinedLanesMatchesChains holds PipelinedLanes to one OnNIC(k)
// PipelinedChain call per lane: the same first id, error text, ops (labels),
// resources (ids and names, so the same intern order) and, once run, the
// same start and finish of every op, bit for bit. The cases cover every NIC
// layout the topologies have, a lane past the NIC count (it wraps onto NIC
// 0), a zero-byte lane, a lane with fewer bytes than chunks, lanes of
// different chunk counts, and every error PipelinedChain reports, from the
// first lane and from a later one.
func TestPipelinedLanesMatchesChains(t *testing.T) {
	four := latticeCluster(true)
	dgx := mesh.DGXA100Cluster(3)
	mixed := mesh.MixedP3DGXCluster(1, 2, 2)
	var cases []laneCase
	for _, tc := range []struct {
		name  string
		topo  mesh.Topology
		chain []int
	}{
		{"four/cross", four, []int{0, 4, 5, 6, 7}},
		{"four/relay", four, []int{1, 5, 9, 8}},
		{"four/intra", four, []int{0, 1, 2}},
		{"four/back", four, []int{0, 4, 1, 5}},
		{"dgx/cross", dgx, []int{0, 8, 9, 10, 11, 12, 13, 14, 15}},
		{"dgx/two-hosts", dgx, []int{3, 8, 16, 17}},
		{"mixed/p3-to-dgx", mixed, []int{0, 4, 5, 12}},
	} {
		for _, k := range []int{1, 2, 4, 5, 8} {
			for _, bytes := range []int64{0, 3, 41, 1001, 64 << 20} {
				cases = append(cases, laneCase{
					name: fmt.Sprintf("%s/%d-lanes/%dB", tc.name, k, bytes), topo: tc.topo, chain: tc.chain,
					lanes: lanesOf(k, bytes, 4), deps: []OpID{0},
				})
			}
		}
		mixedChunks := lanesOf(3, 100, 1)
		mixedChunks[1].Chunks, mixedChunks[2].Bytes = 7, 2 // fewer bytes than chunks
		mixedChunks[2].Chunks = 5
		cases = append(cases, laneCase{name: tc.name + "/mixed-chunks", topo: tc.topo, chain: tc.chain, lanes: mixedChunks})
	}
	bad := func(name string, mutate func(c *laneCase)) {
		c := laneCase{name: "error/" + name, topo: four, chain: []int{0, 4, 5}, lanes: lanesOf(3, 99, 3), deps: []OpID{0}}
		mutate(&c)
		cases = append(cases, c)
	}
	bad("no-lanes", func(c *laneCase) { c.lanes = nil })
	bad("after-run", func(c *laneCase) { c.ran = true })
	bad("short-chain", func(c *laneCase) { c.chain = []int{4} })
	bad("repeated-device", func(c *laneCase) { c.chain = []int{0, 4, 0} })
	bad("invalid-device", func(c *laneCase) { c.chain = []int{0, 4, 12} })
	bad("unknown-dep", func(c *laneCase) { c.deps = []OpID{1} })
	bad("zero-chunks-first", func(c *laneCase) { c.lanes[0].Chunks = 0 })
	bad("zero-chunks-later", func(c *laneCase) { c.lanes[2].Chunks = 0 })
	bad("negative-later", func(c *laneCase) { c.lanes[1].Bytes = -1 })
	bad("chunk-overflow-later", func(c *laneCase) { c.lanes[1].Bytes, c.lanes[1].Chunks = math.MaxInt64, 2 })
	bad("arena-overflow-later", func(c *laneCase) { c.lanes[2].Chunks = math.MaxInt32 })

	for _, c := range cases {
		ref, refFirst, refErr := buildLanes(c, false)
		got, gotFirst, gotErr := buildLanes(c, true)
		if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
			t.Errorf("%s: error %v, want %v", c.name, gotErr, refErr)
			continue
		}
		if gotFirst != refFirst {
			t.Errorf("%s: first op %d, want %d", c.name, gotFirst, refFirst)
		}
		if c.ran {
			continue
		}
		if got.Sim.NumOps() != ref.Sim.NumOps() || got.Sim.NumResources() != ref.Sim.NumResources() {
			t.Errorf("%s: %d ops on %d resources, want %d on %d", c.name,
				got.Sim.NumOps(), got.Sim.NumResources(), ref.Sim.NumOps(), ref.Sim.NumResources())
			continue
		}
		for id := 0; id < ref.Sim.NumResources(); id++ {
			if g, w := got.Sim.ResourceName(ResourceID(id)), ref.Sim.ResourceName(ResourceID(id)); g != w {
				t.Errorf("%s: resource %d is %q, want %q", c.name, id, g, w)
			}
		}
		gotSpan, err1 := got.Run()
		refSpan, err2 := ref.Run()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: run: %v / %v", c.name, err1, err2)
		}
		if math.Float64bits(gotSpan) != math.Float64bits(refSpan) {
			t.Errorf("%s: makespan %g, want %g", c.name, gotSpan, refSpan)
		}
		for id := OpID(0); int(id) < ref.Sim.NumOps(); id++ {
			if got.Sim.OpLabel(id) != ref.Sim.OpLabel(id) ||
				math.Float64bits(got.Sim.OpStart(id)) != math.Float64bits(ref.Sim.OpStart(id)) ||
				math.Float64bits(got.Sim.OpFinish(id)) != math.Float64bits(ref.Sim.OpFinish(id)) {
				t.Errorf("%s: op %d is %q [%g, %g], want %q [%g, %g]", c.name, id,
					got.Sim.OpLabel(id), got.Sim.OpStart(id), got.Sim.OpFinish(id),
					ref.Sim.OpLabel(id), ref.Sim.OpStart(id), ref.Sim.OpFinish(id))
				break
			}
		}
	}
}

// BenchmarkEightLanesOneCall registers and runs one dgx-a100 unit task
// split over eight NIC lanes in one PipelinedLanes call: each lane crosses
// from host 0 to host 1 on its own NIC and then down seven device hops
// there, which all eight lanes share.
func BenchmarkEightLanesOneCall(b *testing.B) {
	n := NewClusterNet(mesh.DGXA100Cluster(2))
	chain := []int{0, 8, 9, 10, 11, 12, 13, 14, 15}
	lanes := lanesOf(8, 64<<20, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Reset()
		if _, err := n.PipelinedLanes(chain, lanes, 0, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
