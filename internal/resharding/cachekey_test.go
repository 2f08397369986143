package resharding

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/model"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// referenceCacheKey is CacheKey as it was rendered with fmt verbs. Keys are
// what ring routing, snapshots and peer fills agree on, so the strconv
// renderer is held to this one byte for byte.
func referenceCacheKey(task *sharding.Task, opts Options) string {
	topo := task.Src.Mesh.Topo
	seen := map[int]bool{}
	var hosts []int
	for _, m := range []*mesh.Mesh{task.Src.Mesh, task.Dst.Mesh} {
		for _, d := range m.Devices {
			h := topo.HostOf(d)
			if !seen[h] {
				seen[h] = true
				hosts = append(hosts, h)
			}
		}
	}
	sort.Ints(hosts)
	base := hosts[0]
	firstDev := make(map[int]int, len(hosts))
	for _, h := range hosts {
		firstDev[h] = topo.DevicesOnHost(h)[0]
	}
	writeMesh := func(b *strings.Builder, tag string, p *sharding.Placement) {
		fmt.Fprintf(b, "%s=%v/%s@", tag, p.Mesh.Shape, p.Spec)
		for _, d := range p.Mesh.Devices {
			h := topo.HostOf(d)
			fmt.Fprintf(b, "%d.%d,", h-base, d-firstDev[h])
		}
		b.WriteByte(';')
	}

	var b strings.Builder
	fmt.Fprintf(&b, "t=%v/%v;", task.Global, task.DType)
	writeMesh(&b, "s", task.Src)
	writeMesh(&b, "d", task.Dst)
	for _, h := range hosts {
		// mesh.HostFingerprint as fmt rendered it, before it too moved to strconv.
		fmt.Fprintf(&b, "h%d[d%d,ib%g,il%g,nb%g,nn%d];", h-base, len(topo.DevicesOnHost(h)),
			topo.IntraBandwidth(h), topo.IntraLatency(h), topo.NICBandwidth(h), topo.NICCount(h))
	}
	for _, a := range hosts {
		for _, r := range hosts {
			if a == r {
				continue
			}
			fmt.Fprintf(&b, "x%d-%d:%g/%g;", a-base, r-base, topo.InterBandwidth(a, r), topo.InterLatency(a, r))
		}
	}
	fmt.Fprintf(&b, "o=%d/%d/%d/%d/%d/%d", opts.Strategy, opts.Scheduler,
		opts.Chunks, opts.DFSNodes, opts.Trials, opts.Seed)
	return b.String()
}

// table2Tasks builds the paper's nine Table 2 configurations on a 5-host p3
// cluster: sender mesh from host 0, receiver mesh from host 2, a mesh row
// per host (case 8's three-wide rows take the first devices of each host).
func table2Tasks(t *testing.T) []*sharding.Task {
	t.Helper()
	c := mesh.AWSP3Cluster(5)
	devices := func(shape []int, firstHost int) []int {
		var devs []int
		for r := 0; r < shape[0]; r++ {
			first, _ := c.HostDevices(firstHost + r)
			for i := 0; i < shape[1]; i++ {
				devs = append(devs, first+i)
			}
		}
		return devs
	}
	var tasks []*sharding.Task
	for _, tc := range []struct {
		send, recv         string
		sendMesh, recvMesh []int
		dim0               int
	}{
		{"S0RR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"RRR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"RS0R", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"RS01R", "S01RR", []int{2, 4}, []int{2, 4}, 1024},
		{"S1RR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"S0RR", "S0RR", []int{2, 4}, []int{3, 4}, 1026},
		{"S1RR", "RRR", []int{1, 4}, []int{2, 4}, 1024},
		{"RRR", "RRR", []int{2, 3}, []int{3, 2}, 1026},
		{"RS0R", "RRS0", []int{2, 4}, []int{2, 4}, 1024},
	} {
		src, err := mesh.NewMesh(c, tc.sendMesh, devices(tc.sendMesh, 0))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := mesh.NewMesh(c, tc.recvMesh, devices(tc.recvMesh, 2))
		if err != nil {
			t.Fatal(err)
		}
		task, err := sharding.NewTask(tensor.MustShape(tc.dim0, 1024, 512), tensor.Float32,
			src, sharding.MustParse(tc.send), dst, sharding.MustParse(tc.recv))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	return tasks
}

// table3Tasks builds every stage-boundary resharding of the six Table 3
// workloads on one topology: stage s on the (DP, OP) mesh that starts at
// device s*DP*OP, as TrainingJob lays stages out.
func table3Tasks(t *testing.T, topo mesh.Topology) []*sharding.Task {
	t.Helper()
	var workloads []*model.Workload
	var configs []model.ParallelConfig
	add := func(w *model.Workload, err error, pc model.ParallelConfig) {
		if err != nil {
			t.Fatal(err)
		}
		workloads, configs = append(workloads, w), append(configs, pc)
	}
	gptA, gptB := model.ParallelConfig{DP: 2, OP: 2, PP: 2}, model.ParallelConfig{DP: 4, OP: 1, PP: 2}
	ut := model.ParallelConfig{DP: 2, OP: 4, PP: 2}
	w, err := model.NewGPTWorkload(model.GPT1_3B(), gptA, tensor.Float16, 64, 2)
	add(w, err, gptA)
	w, err = model.NewGPTWorkload(model.GPT2_6B(), gptA, tensor.Float16, 64, 2)
	add(w, err, gptA)
	w, err = model.NewGPTWorkload(model.GPT2_6B(), gptB, tensor.Float16, 64, 2)
	add(w, err, gptB)
	w, err = model.NewUTransWorkload(model.UTrans1B(), ut, tensor.Float16, 64, 2)
	add(w, err, ut)
	w, err = model.NewUTransWorkload(model.UTrans2_1B(), ut, tensor.Float16, 64, 2)
	add(w, err, ut)
	w, err = model.NewUTransWorkload(model.UTrans2_1B(), ut, tensor.Float32, 64, 2)
	add(w, err, ut)

	var tasks []*sharding.Task
	for i, w := range workloads {
		pc := configs[i]
		for _, bt := range w.Boundaries {
			src, err := topo.Slice([]int{pc.DP, pc.OP}, bt.Boundary*pc.DevicesPerStage())
			if err != nil {
				t.Fatal(err)
			}
			dst, err := topo.Slice([]int{pc.DP, pc.OP}, (bt.Boundary+1)*pc.DevicesPerStage())
			if err != nil {
				t.Fatal(err)
			}
			task, err := sharding.NewTask(bt.Shape, w.DType, src, sharding.MustParse(bt.SrcSpec), dst, sharding.MustParse(bt.DstSpec))
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
	}
	return tasks
}

// TestCacheKeyMatchesFmtRenderer: over Table 2, the Table 3 boundaries on the
// three topology families, fault overlays of each and every option field, the
// key is byte for byte the fmt-rendered one.
func TestCacheKeyMatchesFmtRenderer(t *testing.T) {
	tasks := table2Tasks(t)
	topos := []mesh.Topology{mesh.AWSP3Cluster(4), mesh.DGXA100Cluster(4), mesh.MixedP3DGXCluster(2, 2, 2)}
	for _, topo := range topos {
		tasks = append(tasks, table3Tasks(t, topo)...)
		for _, fs := range []mesh.FaultSet{
			{}, // the identity overlay
			{Links: []mesh.LinkFault{{A: 0, B: 1, Down: true}}},
			{Links: []mesh.LinkFault{{A: 1, B: 2, BandwidthScale: 1.0 / 3, ExtraLatency: 1.7e-5}}},
			{Hosts: []mesh.HostFault{{Host: 0, NICScale: 0.37, IntraScale: 0.9}}, Links: []mesh.LinkFault{{A: 0, B: 3, BandwidthScale: 0.5}}},
		} {
			faulted, err := mesh.NewFaulted(topo, fs)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, table3Tasks(t, faulted)...)
		}
	}
	// A boundary far from host 0: two-digit host indices, rebased to 0.
	tasks = append(tasks, builderTask(t, mesh.AWSP3Cluster(40), 140, 148))
	// Sixteen one-device hosts, each with a NIC scale of its own, and links
	// with a bandwidth and latency of their own: more distinct host and
	// host-pair values than CacheKey remembers rendered.
	one, err := mesh.NewCluster(16, 1, 100e9, 10e9, 1e-6, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	var distinct mesh.FaultSet
	for h := 0; h < 16; h++ {
		distinct.Hosts = append(distinct.Hosts, mesh.HostFault{Host: h, NICScale: 1 / float64(h+2)})
	}
	for a := 0; a+1 < 16; a++ {
		distinct.Links = append(distinct.Links, mesh.LinkFault{A: a, B: a + 1, BandwidthScale: 1 / float64(a+3), ExtraLatency: float64(a) * 1e-7})
	}
	tasks = append(tasks, builderTask(t, one, 0, 8), builderTask(t, mesh.MustFaulted(one, distinct), 0, 8))

	options := []Options{
		{},
		Options{}.WithDefaults(),
		{Strategy: Signal},
		{Scheduler: SchedDegraded},
		{Chunks: 128},
		{DFSNodes: 10_000_000},
		{Trials: 7},
		{Seed: -9e18},
		{Strategy: Alpa, Scheduler: SchedGreedyLoad, Chunks: -3, DFSNodes: -1, Trials: -1, Seed: 1 << 62},
	}
	keys := map[string]bool{}
	for _, task := range tasks {
		for _, opts := range options {
			got, want := CacheKey(task, opts), referenceCacheKey(task, opts)
			if got != want {
				t.Fatalf("%v %+v:\n got %s\nwant %s", task, opts, got, want)
			}
			keys[got] = true
		}
	}
	if len(keys) < 20*len(options) {
		t.Fatalf("only %d distinct keys over %d tasks", len(keys), len(tasks))
	}
}
