// Plan-quality instrument: a seeded population of planning problems on the
// three topology presets, their faulted twins and the p3 5-host (2,3) to
// (3,2) family, planned with the default options and simulated. The golden
// pins, per problem, the host-level makespan, the floor under it, whether
// the plan is proven, the ensemble exit and the simulated makespan, and ends
// with per-family summaries. A change that moves plan quality regenerates it
// and its diff is the plan-change report:
//
//	go test -run TestPlanQuality -update .
package alpacomm_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// qualityFamily draws one family's problems.
type qualityFamily struct {
	name string
	// hosts and oversubs are the topology sizes and oversubscriptions drawn
	// from; pairs the (source, destination) mesh shapes.
	topo     string
	hosts    []int
	oversubs []float64
	pairs    [][2][]int
	// faulted families also plan a twin of each problem under a fault
	// scenario, summarized as family+"+fault".
	faulted bool
	// count is how many distinct problems the family draws.
	count int
}

var (
	qualityPairs = [][2][]int{
		{{2, 2}, {2, 2}},
		{{2, 4}, {2, 4}},
		{{1, 4}, {2, 4}},
		{{2, 3}, {3, 2}},
	}
	qualityFamilies = []qualityFamily{
		{name: "p3", topo: mesh.TopologyP3, hosts: []int{3, 4, 5}, pairs: qualityPairs, faulted: true, count: 96},
		{name: "dgx-a100", topo: mesh.TopologyDGXA100, hosts: []int{2, 3}, pairs: qualityPairs, faulted: true, count: 96},
		{name: "mixed", topo: mesh.TopologyMixed, hosts: []int{3, 4}, oversubs: []float64{1, 1.5, 2}, pairs: qualityPairs, faulted: true, count: 96},
		// The shape whose searches ended above the floor, 12-18 tasks with
		// every sender forced, drawn more often: few of its draws search.
		{name: "p3-5h-2x3-3x2", topo: mesh.TopologyP3, hosts: []int{5}, pairs: [][2][]int{{{2, 3}, {3, 2}}}, count: 288},
	}
	qualitySpecs = map[int][]string{
		2: {"RR", "S0R", "RS0", "S1R", "RS1", "S01R", "RS01", "S0S1", "S1S0"},
		3: {"RRR", "S0RR", "RS0R", "RRS0", "S1RR", "RS1R", "S01RR", "RS01R", "S0S1R"},
	}
	qualityExtents = []int{48, 96, 192, 384}
	qualityInner   = []int{8, 24}
	qualityFaults  = []string{mesh.FaultBrownout, mesh.FaultStraggler, mesh.FaultLinkDown}
)

// qualityMesh renders a mesh shape at its first device.
func qualityMesh(shape []int, first int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return fmt.Sprintf("%s@%d", strings.Join(parts, "x"), first)
}

// qualityPlace puts the source mesh at device 0 and the destination at the
// first device of the host after the source's last, so every resharding
// crosses hosts; ok is false when the pair does not fit.
func qualityPlace(topo mesh.Topology, src, dst []int) (string, string, bool) {
	srcN, dstN := 1, 1
	for _, d := range src {
		srcN *= d
	}
	for _, d := range dst {
		dstN *= d
	}
	if srcN > topo.NumDevices() {
		return "", "", false
	}
	h := topo.HostOf(srcN-1) + 1
	if h >= topo.HostCount() {
		return "", "", false
	}
	first := topo.DevicesOnHost(h)[0]
	if first+dstN > topo.NumDevices() {
		return "", "", false
	}
	return qualityMesh(src, 0), qualityMesh(dst, first), true
}

// qualityProblem is one drawn problem: its family for the summary and its
// request.
type qualityProblem struct {
	family string
	req    service.PlanRequest
}

// qualityPopulation draws every family's problems from one seeded rng,
// admitting only requests the service parses and whose key is new.
func qualityPopulation(t *testing.T) []qualityProblem {
	t.Helper()
	rng := rand.New(rand.NewSource(20230604))
	reg := mesh.DefaultRegistry()
	srv := service.New(service.Config{})
	seen := map[string]bool{}
	admit := func(req service.PlanRequest) bool {
		_, _, key, err := srv.ParsePlanRequest(context.Background(), &req)
		if err != nil || seen[key] {
			return false
		}
		seen[key] = true
		return true
	}
	var out []qualityProblem
	for _, fam := range qualityFamilies {
		drawn := 0
		for attempt := 0; drawn < fam.count; attempt++ {
			if attempt > 100*fam.count {
				t.Fatalf("family %s: only %d admissible problems in %d draws", fam.name, drawn, attempt)
			}
			ref := service.TopologyRef{Name: fam.topo, Hosts: fam.hosts[rng.Intn(len(fam.hosts))]}
			if len(fam.oversubs) > 0 {
				ref.Oversubscription = fam.oversubs[rng.Intn(len(fam.oversubs))]
			}
			topo, err := reg.Build(ref.Name, mesh.TopologyParams{Hosts: ref.Hosts, Oversubscription: ref.Oversubscription})
			if err != nil {
				t.Fatal(err)
			}
			pair := fam.pairs[rng.Intn(len(fam.pairs))]
			srcMesh, dstMesh, ok := qualityPlace(topo, pair[0], pair[1])
			if !ok {
				continue
			}
			rank := 2 + rng.Intn(2)
			specs := qualitySpecs[rank]
			shape := []int{qualityExtents[rng.Intn(len(qualityExtents))], qualityExtents[rng.Intn(len(qualityExtents))]}
			if rank == 3 {
				shape = append(shape, qualityInner[rng.Intn(len(qualityInner))])
			}
			req := service.PlanRequest{
				Topology: ref,
				Shape:    shape,
				DType:    []string{"fp16", "fp32"}[rng.Intn(2)],
				Src:      service.Endpoint{Mesh: srcMesh, Spec: specs[rng.Intn(len(specs))]},
				Dst:      service.Endpoint{Mesh: dstMesh, Spec: specs[rng.Intn(len(specs))]},
				Options:  service.PlanOptions{Seed: int64(1 + rng.Intn(1000)), Chunks: []int{0, 8, 64}[rng.Intn(3)]},
			}
			if !admit(req) {
				continue
			}
			drawn++
			out = append(out, qualityProblem{family: fam.name, req: req})
			if !fam.faulted {
				continue
			}
			faults := len(qualityFaults)
			if ref.Hosts < 3 {
				faults-- // link-down needs a detour
			}
			twin := req
			twin.Faults = &service.FaultsRef{Scenario: qualityFaults[rng.Intn(faults)]}
			if admit(twin) {
				out = append(out, qualityProblem{family: fam.name + "+fault", req: twin})
			}
		}
	}
	return out
}

// qualityRequest renders a request as one golden field.
func qualityRequest(r *service.PlanRequest) string {
	topo := fmt.Sprintf("%s/%d", r.Topology.Name, r.Topology.Hosts)
	if r.Topology.Oversubscription != 0 {
		topo += "/x" + strconv.FormatFloat(r.Topology.Oversubscription, 'g', -1, 64)
	}
	fault := "-"
	if r.Faults != nil {
		fault = r.Faults.Scenario
	}
	return fmt.Sprintf("%s %v %s %s %s -> %s %s c%d seed%d %s", topo, r.Shape, r.DType,
		r.Src.Mesh, r.Src.Spec, r.Dst.Mesh, r.Dst.Spec, r.Options.Chunks, r.Options.Seed, fault)
}

func qualityFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// qualityStats accumulates one family's summary.
type qualityStats struct {
	n, proven int
	logSim    float64
	// maxGap is the largest host makespan over its floor, minus one.
	maxGap float64
}

// TestPlanQuality plans and simulates the population and holds the result
// to testdata/quality.golden.
func TestPlanQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("plans a few hundred problems")
	}
	srv := service.New(service.Config{})
	ctx := context.Background()
	var b strings.Builder
	b.WriteString("# family | request | host makespan, floor, proven, exit | simulated makespan\n")
	stats := map[string]*qualityStats{}
	var families []string
	for _, p := range qualityPopulation(t) {
		task, opts, _, err := srv.ParsePlanRequest(ctx, &p.req)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := resharding.NewPlanContext(ctx, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", qualityRequest(&p.req), err)
		}
		sim, err := plan.SimulateNoTrace()
		if err != nil {
			t.Fatalf("%s: %v", qualityRequest(&p.req), err)
		}
		r := plan.Report
		fmt.Fprintf(&b, "%s | %s | host %s floor %s proven %v exit %v | sim %s\n", p.family, qualityRequest(&p.req),
			qualityFloat(r.Span), qualityFloat(r.Floor), r.Proven, r.Exit, qualityFloat(sim.Makespan))
		st := stats[p.family]
		if st == nil {
			st = &qualityStats{}
			stats[p.family] = st
			families = append(families, p.family)
		}
		st.n++
		if r.Proven {
			st.proven++
		}
		st.logSim += math.Log(sim.Makespan)
		if r.Floor > 0 {
			st.maxGap = max(st.maxGap, r.Span/r.Floor-1)
		}
	}
	b.WriteString("# family | problems | simulated geomean | proven share | largest host gap to the floor\n")
	for _, f := range families {
		st := stats[f]
		fmt.Fprintf(&b, "summary %s | %d | %s | %d/%d | %s\n", f, st.n,
			qualityFloat(math.Exp(st.logSim/float64(st.n))), st.proven, st.n, qualityFloat(st.maxGap))
	}
	got := b.String()
	path := filepath.Join("testdata", "quality.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("plan quality moved; first difference at line %d:\n got: %s\nwant: %s\n(a deliberate change regenerates %s with -update)", i+1, g, w, path)
			}
		}
	}
}
