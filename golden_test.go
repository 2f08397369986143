// Golden determinism fixtures: plans, makespans and Event timelines on the
// three topology presets (p3, dgx-a100, mixed), captured before the
// allocation-free netsim refactor and asserted byte-identical after it.
// Regenerate with: go test -run TestGolden -update .
package alpacomm_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	alpacomm "alpacomm"
	"alpacomm/internal/netsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenEvent mirrors netsim.Event with exact float64 round-tripping.
type goldenEvent struct {
	Label     string   `json:"label"`
	Start     float64  `json:"start"`
	Finish    float64  `json:"finish"`
	Resources []string `json:"resources"`
}

// goldenReshard records one (preset, strategy) resharding outcome.
type goldenReshard struct {
	Preset   string        `json:"preset"`
	Strategy string        `json:"strategy"`
	SenderOf map[int]int   `json:"sender_of"`
	Order    []int         `json:"order"`
	Makespan float64       `json:"makespan"`
	EffGbps  float64       `json:"eff_gbps"`
	NumOps   int           `json:"num_ops"`
	Events   []goldenEvent `json:"events"`
}

// goldenPipeline records one pipeline-schedule simulation.
type goldenPipeline struct {
	Name            string        `json:"name"`
	Makespan        float64       `json:"makespan"`
	PeakActivations []int         `json:"peak_activations"`
	Events          []goldenEvent `json:"events"`
}

type goldenFile struct {
	Reshards  []goldenReshard  `json:"reshards"`
	Pipelines []goldenPipeline `json:"pipelines"`
}

func toGoldenEvents(evs []netsim.Event) []goldenEvent {
	out := make([]goldenEvent, len(evs))
	for i, e := range evs {
		out[i] = goldenEvent{Label: e.Label, Start: e.Start, Finish: e.Finish, Resources: e.Resources}
	}
	return out
}

// goldenPresets are the three topology presets of the registry. Meshes are
// (2,4) source at device 0 and (2,4) destination at device 8 — on p3 that
// spans hosts 0-1 vs 2-3, on dgx-a100 it is host 0 vs host 1, and on mixed
// it is the two p3 hosts vs the first DGX host.
func goldenPresets() []struct {
	Name string
	Topo alpacomm.Topology
} {
	return []struct {
		Name string
		Topo alpacomm.Topology
	}{
		{"p3", alpacomm.AWSP3Cluster(4)},
		{"dgx-a100", alpacomm.DGXA100Cluster(2)},
		{"mixed", alpacomm.MixedP3DGXCluster(2, 2, 2)},
	}
}

func goldenStrategies() []struct {
	Name string
	Opts alpacomm.ReshardOptions
} {
	// The ensemble search is a pure function of its inputs (its budget is a
	// node count), so the fixtures are machine-independent; the broadcast
	// row's DFSNodes pins a budget below the default.
	return []struct {
		Name string
		Opts alpacomm.ReshardOptions
	}{
		{"send/recv", alpacomm.ReshardOptions{Strategy: alpacomm.StrategySendRecv, Scheduler: alpacomm.SchedulerGreedyLoad}},
		{"broadcast", alpacomm.ReshardOptions{Strategy: alpacomm.StrategyBroadcast, Scheduler: alpacomm.SchedulerEnsemble, Seed: 1, DFSNodes: 20000, Chunks: 8}},
		{"alpa", alpacomm.ReshardOptions{Strategy: alpacomm.StrategyAlpa, Scheduler: alpacomm.SchedulerGreedyLoad}},
	}
}

func buildGolden(t *testing.T) goldenFile {
	t.Helper()
	var g goldenFile
	shape, err := alpacomm.NewShape(128, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	srcSpec, _ := alpacomm.ParseSpec("RS01R")
	dstSpec, _ := alpacomm.ParseSpec("S01RR")
	for _, p := range goldenPresets() {
		src, err := p.Topo.Slice([]int{2, 4}, 0)
		if err != nil {
			t.Fatalf("%s: src mesh: %v", p.Name, err)
		}
		dst, err := p.Topo.Slice([]int{2, 4}, 8)
		if err != nil {
			t.Fatalf("%s: dst mesh: %v", p.Name, err)
		}
		task, err := alpacomm.NewReshardTask(shape, alpacomm.Float32, src, srcSpec, dst, dstSpec)
		if err != nil {
			t.Fatalf("%s: task: %v", p.Name, err)
		}
		for _, s := range goldenStrategies() {
			plan, err := alpacomm.PlanReshard(task, s.Opts)
			if err != nil {
				t.Fatalf("%s/%s: plan: %v", p.Name, s.Name, err)
			}
			sim, err := plan.Simulate()
			if err != nil {
				t.Fatalf("%s/%s: simulate: %v", p.Name, s.Name, err)
			}
			g.Reshards = append(g.Reshards, goldenReshard{
				Preset:   p.Name,
				Strategy: s.Name,
				SenderOf: plan.SenderOf,
				Order:    plan.Order,
				Makespan: sim.Makespan,
				EffGbps:  sim.EffectiveGbps,
				NumOps:   sim.NumOps,
				Events:   toGoldenEvents(sim.Events),
			})
		}
	}
	for _, pc := range []struct {
		Name string
		Cfg  alpacomm.PipelineConfig
	}{
		{"1f1b-inline", alpacomm.PipelineConfig{
			Stages: 4, MicroBatches: 8, Schedule: alpacomm.Schedule1F1B,
			FwdTime: []float64{1, 1.25, 1, 0.75}, BwdTime: []float64{2, 2.5, 2, 1.5},
			FwdCommTime: []float64{0.5, 0.25, 0.5},
		}},
		{"eager-overlap-split", alpacomm.PipelineConfig{
			Stages: 4, MicroBatches: 8, Schedule: alpacomm.ScheduleEager1F1B,
			FwdTime: []float64{1, 1.25, 1, 0.75}, BwdTime: []float64{2, 2.5, 2, 1.5},
			FwdCommTime: []float64{0.5, 0.25, 0.5}, BwdCommTime: []float64{0.25, 0.5, 0.25},
			Overlap: true, SplitBackward: true, BdFraction: 0.4,
		}},
	} {
		res, err := alpacomm.SimulatePipeline(pc.Cfg)
		if err != nil {
			t.Fatalf("pipeline %s: %v", pc.Name, err)
		}
		g.Pipelines = append(g.Pipelines, goldenPipeline{
			Name:            pc.Name,
			Makespan:        res.Makespan,
			PeakActivations: res.PeakActivations,
			Events:          toGoldenEvents(res.Events),
		})
	}
	return g
}

// TestGoldenDeterminism asserts that plans (sender assignment + order),
// makespans and full Event timelines on all three presets are identical to
// the committed fixtures — the refactor-safety net for the netsim core.
func TestGoldenDeterminism(t *testing.T) {
	got := buildGolden(t)
	path := filepath.Join("testdata", "golden_netsim.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixtures rewritten: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Reshards) != len(want.Reshards) {
		t.Fatalf("reshard fixture count: got %d want %d", len(got.Reshards), len(want.Reshards))
	}
	for i, w := range want.Reshards {
		g := got.Reshards[i]
		if g.Preset != w.Preset || g.Strategy != w.Strategy {
			t.Fatalf("fixture %d identity: got %s/%s want %s/%s", i, g.Preset, g.Strategy, w.Preset, w.Strategy)
		}
		if g.Makespan != w.Makespan || g.EffGbps != w.EffGbps || g.NumOps != w.NumOps {
			t.Errorf("%s/%s: makespan/gbps/ops = %v/%v/%d, want %v/%v/%d",
				g.Preset, g.Strategy, g.Makespan, g.EffGbps, g.NumOps, w.Makespan, w.EffGbps, w.NumOps)
		}
		if !reflect.DeepEqual(g.SenderOf, w.SenderOf) || !reflect.DeepEqual(g.Order, w.Order) {
			t.Errorf("%s/%s: plan differs from fixture", g.Preset, g.Strategy)
		}
		assertEventsEqual(t, g.Preset+"/"+g.Strategy, g.Events, w.Events)
	}
	if len(got.Pipelines) != len(want.Pipelines) {
		t.Fatalf("pipeline fixture count: got %d want %d", len(got.Pipelines), len(want.Pipelines))
	}
	for i, w := range want.Pipelines {
		g := got.Pipelines[i]
		if g.Makespan != w.Makespan || !reflect.DeepEqual(g.PeakActivations, w.PeakActivations) {
			t.Errorf("pipeline %s: makespan %v peak %v, want %v %v", g.Name, g.Makespan, g.PeakActivations, w.Makespan, w.PeakActivations)
		}
		assertEventsEqual(t, "pipeline/"+g.Name, g.Events, w.Events)
	}
}

func assertEventsEqual(t *testing.T, name string, got, want []goldenEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d events, want %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: event %d = %+v, want %+v", name, i, got[i], want[i])
			return
		}
	}
}
