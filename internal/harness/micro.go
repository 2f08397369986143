// Package harness contains one runner per table and figure of the paper's
// evaluation (§5): the microbenchmarks (Figs. 5 and 6 over Table 2's
// cases), the end-to-end throughput study (Fig. 7 over Table 3), and the
// ablations (Figs. 8 and 9), plus Table 1's memory accounting. The cmd/
// tools and the repository's benchmarks are thin wrappers over these
// functions.
package harness

import (
	"fmt"
	"strings"

	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// MicroRow is one point of a microbenchmark figure.
type MicroRow struct {
	// Case identifies the configuration ("1gpu", "case3", ...).
	Case string
	// Method is the system under test ("Send/Recv", "Alpa", "Ours", ...).
	Method string
	// EffGbps is the effective bandwidth: tensor bits / completion time.
	EffGbps float64
	// Makespan is the completion time in seconds.
	Makespan float64
	// Units is the number of unit communication tasks.
	Units int
}

// microMethods are the Fig. 5/6 competitors: the naive P2P baseline, the
// all-gather-based Alpa baseline with greedy lowest-load balancing, and
// AlpaComm (broadcast + ensemble scheduling).
func microMethods() []struct {
	Name string
	Opts resharding.Options
} {
	return []struct {
		Name string
		Opts resharding.Options
	}{
		{"Send/Recv", resharding.Options{Strategy: resharding.SendRecv, Scheduler: resharding.SchedGreedyLoad}},
		{"Alpa", resharding.Options{Strategy: resharding.Alpa, Scheduler: resharding.SchedGreedyLoad}},
		{"Ours", resharding.Options{Strategy: resharding.Broadcast, Scheduler: resharding.SchedEnsemble, Seed: 1, Chunks: 64}},
	}
}

// runCase plans and simulates one resharding under one method.
func runCase(task *sharding.Task, opts resharding.Options, caseName, method string) (MicroRow, error) {
	plan, err := resharding.NewPlan(task, opts)
	if err != nil {
		return MicroRow{}, fmt.Errorf("%s/%s: %v", caseName, method, err)
	}
	res, err := plan.Simulate()
	if err != nil {
		return MicroRow{}, fmt.Errorf("%s/%s: %v", caseName, method, err)
	}
	return MicroRow{
		Case:     caseName,
		Method:   method,
		EffGbps:  res.EffectiveGbps,
		Makespan: res.Makespan,
		Units:    len(task.Units),
	}, nil
}

// fig5Task builds the Fig. 5 single-sender setting: a replicated tensor of
// `rows` x 16384 fp32 elements on device 0, destined (replicated) for the
// given receiver devices viewed as meshShape.
func fig5Task(c mesh.Topology, rows int, recvDevices, meshShape []int) (*sharding.Task, error) {
	src, err := mesh.NewMesh(c, []int{1, 1}, []int{0})
	if err != nil {
		return nil, err
	}
	dst, err := mesh.NewMesh(c, meshShape, recvDevices)
	if err != nil {
		return nil, err
	}
	return sharding.NewTask(tensor.MustShape(rows, 16384), tensor.Float32,
		src, sharding.MustParse("RR"), dst, sharding.MustParse("RR"))
}

// Fig5a reproduces Fig. 5a: one sender device, one receiver node with 1-4
// GPUs, 1 GB message (scaled down by `scale` >= 1 for fast runs).
func Fig5a(scale int) ([]MicroRow, error) {
	if scale < 1 {
		scale = 1
	}
	rows := 16384 / scale
	c := mesh.AWSP3Cluster(2)
	var out []MicroRow
	for n := 1; n <= 4; n++ {
		devs := make([]int, n)
		for i := range devs {
			devs[i] = 4 + i
		}
		task, err := fig5Task(c, rows, devs, []int{1, n})
		if err != nil {
			return nil, err
		}
		for _, m := range microMethods() {
			row, err := runCase(task, m.Opts, fmt.Sprintf("%dgpu", n), m.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Fig5b reproduces Fig. 5b: one sender device, 1-4 receiver hosts with 2
// GPUs each.
func Fig5b(scale int) ([]MicroRow, error) {
	if scale < 1 {
		scale = 1
	}
	rows := 16384 / scale
	c := mesh.AWSP3Cluster(5)
	var out []MicroRow
	for a := 1; a <= 4; a++ {
		var devs []int
		for h := 1; h <= a; h++ {
			devs = append(devs, h*4, h*4+1)
		}
		task, err := fig5Task(c, rows, devs, []int{a, 2})
		if err != nil {
			return nil, err
		}
		for _, m := range microMethods() {
			row, err := runCase(task, m.Opts, fmt.Sprintf("%dhost", a), m.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// table2Case is one of the paper's Table 2 multi-device configurations.
type table2Case struct {
	name               string
	sendSpec, recvSpec string
	sendMesh, recvMesh []int // mesh shapes
	dim0               int   // tensor leading dimension (1026 for case6's padding)
}

// table2Cases returns the nine Table 2 configurations. The tensor is
// (1024, 1024, 512) fp32; case 6 pads the leading dimension to 1026 so it
// tiles evenly over both a 2-row and a 3-row mesh.
func table2Cases() []table2Case {
	return []table2Case{
		{"case1", "S0RR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"case2", "RRR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"case3", "RS0R", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"case4", "RS01R", "S01RR", []int{2, 4}, []int{2, 4}, 1024},
		{"case5", "S1RR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"case6", "S0RR", "S0RR", []int{2, 4}, []int{3, 4}, 1026},
		{"case7", "S1RR", "RRR", []int{1, 4}, []int{2, 4}, 1024},
		{"case8", "RRR", "RRR", []int{2, 3}, []int{3, 2}, 1026},
		{"case9", "RS0R", "RRS0", []int{2, 4}, []int{2, 4}, 1024},
	}
}

// buildTable2Task constructs the meshes and resharding task of one Table 2
// case. Sender meshes start at host 0, receiver meshes at host 2 (host
// count follows each mesh's needs; case 8's (2,3) and (3,2) meshes take
// the first 3 GPUs of each of their hosts). scale >= 1 shrinks the tensor.
func buildTable2Task(tc table2Case, scale int) (*sharding.Task, error) {
	c := mesh.AWSP3Cluster(5)
	meshDevices := func(shape []int, firstHost int) []int {
		// One mesh row per host when the row count spans hosts; rows take
		// the first `cols` devices of each host.
		rowsN, cols := shape[0], shape[1]
		var devs []int
		first, perHost := c.HostDevices(firstHost)
		if cols <= perHost {
			for r := 0; r < rowsN; r++ {
				hostFirst, _ := c.HostDevices(firstHost + r)
				for i := 0; i < cols; i++ {
					devs = append(devs, hostFirst+i)
				}
			}
			return devs
		}
		// Wide rows span several hosts.
		n := rowsN * cols
		for i := 0; i < n; i++ {
			devs = append(devs, first+i)
		}
		return devs
	}
	src, err := mesh.NewMesh(c, tc.sendMesh, meshDevices(tc.sendMesh, 0))
	if err != nil {
		return nil, err
	}
	dst, err := mesh.NewMesh(c, tc.recvMesh, meshDevices(tc.recvMesh, 2))
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	dim0 := tc.dim0
	if scale > 1 {
		// Keep divisibility by 6 (cases with degree-2 and degree-3 splits).
		dim0 = tc.dim0 / scale
		if dim0 < 12 {
			dim0 = 12
		}
		dim0 -= dim0 % 6
	}
	shape := tensor.MustShape(dim0, 1024, 512)
	return sharding.NewTask(shape, tensor.Float32,
		src, sharding.MustParse(tc.sendSpec), dst, sharding.MustParse(tc.recvSpec))
}

// Fig6 reproduces Fig. 6: the nine Table 2 cases under Send/Recv, Alpa and
// AlpaComm.
func Fig6(scale int) ([]MicroRow, error) {
	var out []MicroRow
	for _, tc := range table2Cases() {
		task, err := buildTable2Task(tc, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", tc.name, err)
		}
		for _, m := range microMethods() {
			row, err := runCase(task, m.Opts, tc.name, m.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Fig8 reproduces the Fig. 8 load-balance ablation: the nine Table 2 cases
// under the broadcast strategy with Naive, LoadBalanceOnly and Ensemble
// scheduling.
func Fig8(scale int) ([]MicroRow, error) {
	methods := []struct {
		Name string
		Opts resharding.Options
	}{
		{"Naive", resharding.Options{Strategy: resharding.Broadcast, Scheduler: resharding.SchedNaive, Chunks: 64}},
		{"LoadBalanceOnly", resharding.Options{Strategy: resharding.Broadcast, Scheduler: resharding.SchedLoadBalanceOnly, Chunks: 64}},
		{"Ours", resharding.Options{Strategy: resharding.Broadcast, Scheduler: resharding.SchedEnsemble, Seed: 1, Chunks: 64}},
	}
	var out []MicroRow
	for _, tc := range table2Cases() {
		task, err := buildTable2Task(tc, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", tc.name, err)
		}
		for _, m := range methods {
			row, err := runCase(task, m.Opts, tc.name, m.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// RenderMicroRows formats microbenchmark rows as a fixed-width table
// grouped by case.
func RenderMicroRows(title string, rows []MicroRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %-16s %14s %12s %6s\n", "case", "method", "eff-bw (Gbps)", "time (s)", "units")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-16s %14.2f %12.4f %6d\n", r.Case, r.Method, r.EffGbps, r.Makespan, r.Units)
	}
	return b.String()
}
