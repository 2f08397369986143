package netsim

import (
	"math"
	"math/rand"
	"testing"

	"alpacomm/internal/mesh"
)

// fuzzDurations are the durations fuzzGraph draws from: zero, repeats, and
// sevenths whose sums round.
var fuzzDurations = [8]float64{0, 1, 1, 2, 0.5, 1.0 / 7, 3.0 / 7, 10}

// fuzzGraph builds an op graph from data, four bytes per op, on up to four
// resources: a duration, a seq (few values, so ties are common), a resource
// mask (none, one or several) and a dependency byte whose low bits say how
// many earlier ops to depend on and whose high bits pick them.
func fuzzGraph(s *Sim, data []byte) {
	nres := 1
	if len(data) > 0 {
		nres += int(data[0] % 4)
		data = data[1:]
	}
	res := make([]ResourceID, nres)
	for i := range res {
		res[i] = s.MustResource("r" + itoa(int32(i)))
	}
	var occupies []ResourceID
	var deps []OpID
	for id := 0; len(data) >= 4 && id < 64; id++ {
		d, seq, mask, dep := data[0], data[1], data[2], data[3]
		data = data[4:]
		occupies = occupies[:0]
		for i := range res {
			if mask&(1<<i) != 0 {
				occupies = append(occupies, res[i])
			}
		}
		deps = deps[:0]
		for k := 0; k < int(dep%4) && id > 0; k++ {
			deps = append(deps, OpID(int(dep>>2+byte(k)*37)%id))
		}
		s.MustAddOp(Plain("op"), fuzzDurations[d%8], int(seq%3), occupies, deps...)
	}
}

// heapOnly runs the discrete-event simulation alone: runHeap expands every
// lattice record into ops and times them with the ready heap.
func heapOnly(s *Sim) (float64, error) {
	if err := s.runHeap(); err != nil {
		return 0, err
	}
	s.ran = true
	return s.makespan, nil
}

// sameBits reports whether two float64s are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkRunMatchesHeap builds a graph three times, runs one copy with Run and
// another with the heap alone, and requires every op's start and finish,
// every resource's BusyUntil and BusyTime and the makespan to agree bit for
// bit. It reports whether the in-order pass finishes on the third.
func checkRunMatchesHeap(t *testing.T, build func(*Sim)) (inOrder bool) {
	t.Helper()
	got, want, probe := NewSim(), NewSim(), NewSim()
	build(got)
	build(want)
	build(probe)
	inOrder = probe.runInOrder()
	gm, gerr := got.Run()
	wm, werr := heapOnly(want)
	if gerr != nil || werr != nil {
		t.Fatalf("Run: %v, heap: %v", gerr, werr)
	}
	if !sameBits(gm, wm) {
		t.Fatalf("makespan %v, heap %v (in order: %v)", gm, wm, inOrder)
	}
	if got.NumOps() != want.NumOps() {
		t.Fatalf("%d ops, heap %d", got.NumOps(), want.NumOps())
	}
	for i := OpID(0); int(i) < got.NumOps(); i++ {
		gs, gf, ws, wf := got.OpStart(i), got.OpFinish(i), want.OpStart(i), want.OpFinish(i)
		if !sameBits(gs, ws) || !sameBits(gf, wf) {
			t.Fatalf("op %d: [%v, %v], heap [%v, %v] (in order: %v)", i, gs, gf, ws, wf, inOrder)
		}
	}
	for i := range got.resources {
		g, w := got.resources[i], want.resources[i]
		if !sameBits(g.BusyUntil, w.BusyUntil) || !sameBits(g.BusyTime, w.BusyTime) {
			t.Fatalf("resource %s: busy until %v for %v, heap %v for %v (in order: %v)", g.Name, g.BusyUntil, g.BusyTime, w.BusyUntil, w.BusyTime, inOrder)
		}
	}
	return inOrder
}

// FuzzRunMatchesHeap holds Run to the heap-only simulation on arbitrary op
// graphs: shared and multi-resource ops, zero and repeated durations, seq
// ties and dependencies on any earlier op.
func FuzzRunMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 5})                  // a chain on one resource
	f.Add([]byte{0, 1, 2, 1, 0, 1, 1, 1, 0})                  // two ops ready together, seq reversed
	f.Add([]byte{1, 0, 0, 1, 0, 0, 0, 2, 0, 5, 0, 3, 1})      // zero durations on shared resources
	f.Add([]byte{3, 6, 1, 15, 0, 7, 2, 3, 5, 3, 0, 12, 9, 4}) // multi-resource ops, sevenths
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRunMatchesHeap(t, func(s *Sim) { fuzzGraph(s, data) })
	})
}

// TestRunMatchesHeapOnRandomGraphs is FuzzRunMatchesHeap over seeded random
// graphs, and checks that both paths are taken often enough to be covered.
func TestRunMatchesHeapOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	paths := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+4*(1+rng.Intn(24)))
		rng.Read(data)
		// Most ops take one resource or none and depend on one earlier op,
		// so that some graphs are uncontended.
		for i := 3; i < len(data); i += 4 {
			if rng.Intn(4) > 0 {
				data[i] &^= 0xf8
				data[i+1] = data[i+1]&^3 | 1
			}
		}
		paths[checkRunMatchesHeap(t, func(s *Sim) { fuzzGraph(s, data) })]++
	}
	if paths[true] < 100 || paths[false] < 100 {
		t.Fatalf("in-order pass finished %d times and gave up %d times of 2000", paths[true], paths[false])
	}
}

// seqTie is TestEventsSorted's graph: two ops ready together on one
// resource, so seq, not id, decides which goes first.
func seqTie(s *Sim) {
	r := s.MustResource("r")
	addOp(s, "second", 1, 2, []ResourceID{r})
	addOp(s, "first", 1, 1, []ResourceID{r})
}

// twoLanes splits one message over both NICs of host 0 into host 1 and on
// to device 3: the lanes cross hosts in parallel and then both need the
// device link 2->3 at the same moment.
func twoLanes(s *Sim) {
	topo := withNICs(testCluster(2), 2)
	n := &ClusterNet{Sim: s, Topo: topo, ids: newResourceTable(topo)}
	for k := 0; k < 2; k++ {
		if _, err := n.OnNIC(k).PipelinedChain("lane", []int{0, 2, 3}, 400, 4, k, nil); err != nil {
			panic(err)
		}
	}
}

// crossHost is one pipelined chain across three hosts and down to a second
// device.
func crossHost(s *Sim) {
	topo := testCluster(3)
	n := &ClusterNet{Sim: s, Topo: topo, ids: newResourceTable(topo)}
	if _, err := n.PipelinedChain("chain", []int{0, 2, 4, 5}, 800, 8, 0, nil); err != nil {
		panic(err)
	}
}

// eightLanes is a dgx-a100-like unit on a uniform cluster: one message in
// eight equal parts, one PipelinedLanes call, each lane crossing from host
// 0 to host 1 on its own NIC and down seven device hops there, which all
// eight share. The lanes reach every device hop at the same moment, so the
// hop's server takes tied chunks.
func eightLanes(s *Sim) {
	c, err := mesh.NewCluster(2, 8, 100, 10, 0, 0)
	if err != nil {
		panic(err)
	}
	topo := withNICs(c, 8)
	n := &ClusterNet{Sim: s, Topo: topo, ids: newResourceTable(topo)}
	if _, err := n.PipelinedLanes([]int{0, 8, 9, 10, 11, 12, 13, 14, 15}, lanesOf(8, 800, 4), 0, nil); err != nil {
		panic(err)
	}
}

// dgxRelay is a broadcast unit on dgx-a100 over eight NIC lanes whose chain
// crosses two host boundaries: host 1 receives each lane on NIC k, forwards
// it over one device hop and sends it on to host 2 over NIC k again.
func dgxRelay(s *Sim) {
	topo := mesh.DGXA100Cluster(3)
	n := &ClusterNet{Sim: s, Topo: topo, ids: newResourceTable(topo)}
	if _, err := n.PipelinedLanes([]int{3, 8, 9, 16, 17}, lanesOf(8, 64<<20, 2), 0, nil); err != nil {
		panic(err)
	}
}

// fiveLanesFourNICs is one PipelinedLanes call of five lanes over four
// NICs: the fifth lane wraps onto NIC 0, so the cross-host hop is shared by
// lanes 0 and 4 alone.
func fiveLanesFourNICs(s *Sim) {
	topo := latticeCluster(true)
	n := &ClusterNet{Sim: s, Topo: topo, ids: newResourceTable(topo)}
	if _, err := n.PipelinedLanes([]int{0, 4, 5}, lanesOf(5, 1000, 3), 0, nil); err != nil {
		panic(err)
	}
}

// twoHops returns a chain that leaves host 0 twice, so host 0's NIC send
// side serves two hops of it, in the given number of chunks. With several,
// chunk 0 reaches the third hop before the last chunk has left on the first.
func twoHops(chunks int) func(*Sim) {
	return func(s *Sim) {
		topo := testCluster(2)
		n := &ClusterNet{Sim: s, Topo: topo, ids: newResourceTable(topo)}
		if _, err := n.PipelinedChain("chain", []int{0, 2, 1, 3}, 800, chunks, 0, nil); err != nil {
			panic(err)
		}
	}
}

// TestWhichPathRuns pins the path: a seq tie, two NIC lanes with a seq each
// sharing a device hop, a resource on two hops of a record that overlap in
// time and five lanes on four NICs fall back to the heap; a single
// cross-host chain, eight NIC lanes with one seq, a dgx-a100 relay of eight
// lanes and a resource on two hops of a one-chunk chain are timed by the
// pass; and either way Run gives the heap's schedule.
func TestWhichPathRuns(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(*Sim)
		inOrder bool
	}{
		{"seq tie", seqTie, false},
		{"two NIC lanes", twoLanes, false},
		{"one cross-host chain", crossHost, true},
		{"eight NIC lanes, one seq", eightLanes, true},
		{"dgx-a100 two-host relay, eight lanes", dgxRelay, true},
		{"a resource on two overlapping hops of a record", twoHops(8), false},
		{"a resource on two hops of a one-chunk chain", twoHops(1), true},
		{"five lanes on four NICs", fiveLanesFourNICs, false},
	} {
		if got := checkRunMatchesHeap(t, tc.build); got != tc.inOrder {
			t.Errorf("%s: in-order pass finished = %v, want %v", tc.name, got, tc.inOrder)
		}
	}
}
