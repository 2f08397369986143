package resharding

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"alpacomm/internal/collective"
	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// referenceSimulate is simulateWith as it was before the dominated
// dependency edges were dropped, built op by op through Transfer and
// StreamTransfer: every chunk's hop-0 op lists all of the unit task's deps,
// a broadcast's completion run lists every lane's last chunk at every
// receiver (ascending by device within a lane), and a run named by several
// of the unit task's hosts is listed once per host. simulateWith must hold
// the same ops, under the same ids, with the same starts and finishes.
func referenceSimulate(p *Plan) (makespan float64, numOps int, events []netsim.Event, err error) {
	topo := p.Task.Src.Mesh.Topo
	net := netsim.NewClusterNet(topo)
	lastSend := make([][]netsim.OpID, topo.HostCount())
	lastRecv := make([][]netsim.OpID, topo.HostCount())
	for pos, idx := range p.Order {
		u := &p.Task.Units[idx]
		sender := p.SenderOf[idx]
		senderHost := topo.HostOf(sender)
		var recvHosts []int
		for _, d := range u.Receivers {
			if h := topo.HostOf(d); !slices.Contains(recvHosts, h) {
				recvHosts = append(recvHosts, h)
			}
		}
		deps := slices.Clone(lastSend[senderHost])
		for _, h := range recvHosts {
			deps = append(deps, lastRecv[h]...)
		}
		label := "u" + strconv.Itoa(idx)
		var done []netsim.OpID
		if p.Opts.Strategy == Broadcast {
			done, err = referenceBroadcast(net, p.Opts, label+"/bc", sender, u.Receivers, u.Bytes(p.Task.DType), pos, deps)
		} else {
			done, err = buildUnitOps(net, p.Opts, label, sender, u.Receivers, u.Slice.NumElements(), u.Bytes(p.Task.DType), pos, deps)
		}
		if err != nil {
			return 0, 0, nil, err
		}
		lastSend[senderHost] = done
		for _, h := range recvHosts {
			lastRecv[h] = done
		}
	}
	makespan, err = net.Run()
	if err != nil {
		return 0, 0, nil, err
	}
	return makespan, net.Sim.NumOps(), net.Sim.Events(), nil
}

// referenceBroadcast is buildBroadcast's lanes registered op by op.
func referenceBroadcast(net *netsim.ClusterNet, opts Options, label string, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	topo := net.Topo
	chunks := opts.Chunks
	if chunks <= 0 {
		chunks = collective.DefaultChunks(bytes)
	}
	lanes := chainNICs(topo, sender, receivers)
	if lanes == 1 || bytes < int64(lanes) {
		lanes = 1
	} else {
		chunks = (chunks + lanes - 1) / lanes
	}
	chain := collective.AppendBroadcastOrder(nil, topo, sender, receivers)
	hops := len(chain) - 1
	var done []netsim.OpID
	for k := 0; k < lanes; k++ {
		view, lbl, part := net, label, bytes
		if lanes > 1 {
			view, lbl = net.OnNIC(k), label+".nic"+strconv.Itoa(k)
			part = int64(k+1)*bytes/int64(lanes) - int64(k)*bytes/int64(lanes)
		}
		c := chunks
		if part < int64(c) {
			c = 1
		}
		prev := make([]netsim.OpID, hops)
		sent := int64(0)
		for i := 0; i < c; i++ {
			end := int64(i+1) * part / int64(c)
			size := end - sent
			sent = end
			xfer := view.Transfer
			if i > 0 {
				xfer = view.StreamTransfer
			}
			for j := 0; j < hops; j++ {
				var d []netsim.OpID
				if j == 0 {
					d = append(d, deps...)
				} else {
					d = append(d, prev[j-1])
				}
				if i > 0 {
					d = append(d, prev[j])
				}
				id, err := xfer(netsim.Label{Prefix: lbl, Kind: netsim.LabelChunkHop, A: int32(i), B: int32(j)}, chain[j], chain[j+1], size, seq, d...)
				if err != nil {
					return nil, err
				}
				prev[j] = id
			}
		}
		lane := make([]int, hops)
		for j := range lane {
			lane[j] = j
		}
		slices.SortFunc(lane, func(a, b int) int { return chain[a+1] - chain[b+1] })
		for _, j := range lane {
			done = append(done, prev[j])
		}
	}
	return done, nil
}

// simReferenceTopologies are every registry preset plus the lanes and routes
// the presets lack: a two-NIC p3, and clusters with zero latency on every
// route (one NIC and eight), where equal chunks tie on their ready times.
func simReferenceTopologies(t *testing.T) map[string]mesh.Topology {
	t.Helper()
	topos := map[string]mesh.Topology{}
	reg := mesh.DefaultRegistry()
	for _, name := range reg.Names() {
		topo, err := reg.Build(name, mesh.TopologyParams{Hosts: 4})
		if err != nil {
			t.Fatal(err)
		}
		topos[name] = topo
	}
	topos["p3 x2 NICs"] = withNICs(mesh.AWSP3Cluster(4), 2)
	topos["zero latency"] = microCluster(4)
	topos["zero latency x8 NICs"] = withNICs(microCluster(4), 8)
	return topos
}

// TestSimulateMatchesReferenceEmitter holds simulateWith, which gates only a
// chain's first chunk on the unit task's deps, keeps one completion op per
// broadcast lane and lists each run once, to the emitter that did none of
// that: same op count, makespan bits and events — labels, resources, start
// and finish bits — on every topology of simReferenceTopologies, for
// broadcasts at chunk counts from one to one byte per chunk, under two
// schedulers, and for the AddOp strategies that share the deduplicated runs.
func TestSimulateMatchesReferenceEmitter(t *testing.T) {
	b := NewPlanBuilder()
	cases := 0
	for name, topo := range simReferenceTopologies(t) {
		last := topo.NumDevices() - 1
		tasks := map[string]*sharding.Task{
			"boundary": stageBoundary(t, topo, 0, 8, 64, 64, 8),
			"tiny":     stageBoundary(t, topo, 0, 8, 8, 8, 1),
		}
		// Two halves of a tensor fanned out to devices on every host: unit
		// tasks whose chains of four hops share every receiver host, so the
		// second waits on the first's arrival at the far end of its chain.
		src, err := mesh.NewMesh(topo, []int{1, 2}, []int{0, last - 1})
		if err != nil {
			t.Fatal(err)
		}
		dst, err := mesh.NewMesh(topo, []int{1, 4}, []int{1, last / 3, 2 * last / 3, last})
		if err != nil {
			t.Fatal(err)
		}
		if tasks["fan-out"], err = sharding.NewTask(tensor.MustShape(4, 4), tensor.Float32, src, sharding.MustParse("S1R"), dst, sharding.MustParse("RR")); err != nil {
			t.Fatal(err)
		}
		for taskName, task := range tasks {
			unitBytes := task.Units[0].Bytes(task.DType)
			for _, strategy := range []Strategy{Broadcast, SendRecv, Alpa} {
				chunkCounts := []int{0, 1, 2, 7, 64}
				if unitBytes <= 256 { // a byte per chunk
					chunkCounts = append(chunkCounts, int(unitBytes))
				}
				if strategy != Broadcast {
					chunkCounts = []int{0}
				}
				for _, sched := range []Scheduler{SchedEnsemble, SchedNaive} {
					plan, err := NewPlan(task, Options{Strategy: strategy, Scheduler: sched, DFSNodes: 2000, Seed: 5})
					if err != nil {
						t.Fatal(err)
					}
					for _, chunks := range chunkCounts {
						p := *plan // the chunk count changes the simulation, not the plan
						p.Opts.Chunks = chunks
						checkSimAgainstReference(t, fmt.Sprintf("%s %s %v/%v chunks %d", name, taskName, strategy, sched, chunks), &p, b)
						cases++
					}
				}
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// checkSimAgainstReference simulates one plan with both emitters.
func checkSimAgainstReference(t *testing.T, where string, plan *Plan, b *PlanBuilder) {
	t.Helper()
	got, err := plan.SimulateWith(b)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	mk, ops, events, err := referenceSimulate(plan)
	if err != nil {
		t.Fatalf("%s: reference: %v", where, err)
	}
	if got.NumOps != ops || math.Float64bits(got.Makespan) != math.Float64bits(mk) {
		t.Fatalf("%s: %d ops, makespan %v; reference %d ops, %v", where, got.NumOps, got.Makespan, ops, mk)
	}
	if len(got.Events) != len(events) {
		t.Fatalf("%s: %d events, reference %d", where, len(got.Events), len(events))
	}
	for i, e := range events {
		g := got.Events[i]
		if g.Label != e.Label || math.Float64bits(g.Start) != math.Float64bits(e.Start) ||
			math.Float64bits(g.Finish) != math.Float64bits(e.Finish) || !slices.Equal(g.Resources, e.Resources) {
			t.Fatalf("%s: event %d is %+v, reference %+v", where, i, g, e)
		}
	}
}
