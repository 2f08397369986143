package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_seed1.json from the current code")

// specOnDisk reads BENCHMARK.json from the repository root.
func specOnDisk(t *testing.T) (benchmarkSpec, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec, data
}

// BENCHMARK.json is generated (go run . -spec > ../BENCHMARK.json); this
// holds the file to the tables in metrics.go and to the driver's limits.
func TestBenchmarkJSONMatchesTheRunner(t *testing.T) {
	spec, onDisk := specOnDisk(t)
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from `go run . -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 || len(onDisk) > 64<<10 {
		t.Error("BENCHMARK.json outside the driver's limits")
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 || !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if m.Bound != nil || !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

// The smoke pass runs every workload untraced and traced at tiny sizes and
// must emit exactly the workloads and metrics BENCHMARK.json names, each
// with its unit, with every output check passing.
func TestSmokeEmitsWhatBenchmarkJSONNames(t *testing.T) {
	spec, _ := specOnDisk(t)
	out := t.TempDir()
	if code := run([]string{"-smoke", "-seed", "3", "-out", out}); code != 0 {
		t.Fatalf("smoke pass exited %d", code)
	}
	data, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Env.Go == "" || res.Env.GOMAXPROCS == 0 || res.Env.NProc == 0 || res.Seed != 3 {
		t.Errorf("result.json lacks its environment or seed: %+v seed %d", res.Env, res.Seed)
	}
	if len(res.Runs) != 2*len(spec.Workloads) {
		t.Fatalf("%d runs for %d workloads", len(res.Runs), len(spec.Workloads))
	}
	for i, r := range res.Runs {
		w := spec.Workloads[i%len(spec.Workloads)]
		specs := spec.EndToEnd
		if r.Traced {
			specs = spec.PerLayer
		}
		if r.Workload != w.Name || r.Traced != (i >= len(spec.Workloads)) {
			t.Fatalf("run %d is %s traced=%v, want %s", i, r.Workload, r.Traced, w.Name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || r.Stream == "" {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Problems)
		}
		if len(r.Metrics) != len(specs) {
			t.Errorf("%s traced=%v: %d metrics emitted, %d named", r.Workload, r.Traced, len(r.Metrics), len(specs))
		}
		for _, m := range specs {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s [%s] emitted as %+v (present=%v)", r.Workload, m.Name, m.Unit, got, ok)
			}
			if !r.Traced && got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g must never be 0", r.Workload, m.Name, got.Value)
			}
		}
	}
	var traces []traceFile
	data, err = os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &traces); err != nil || len(traces) != len(spec.Workloads) {
		t.Fatalf("trace.json: %v, %d workloads", err, len(traces))
	}
	for _, tf := range traces {
		roots, children := 0, 0
		for _, s := range tf.Spans {
			if s.Name == spanRoot {
				roots++
			}
			if s.Parent != 0 {
				children++
			}
		}
		if roots == 0 || children == 0 || tf.Counts["ladder_problems"] == 0 {
			t.Errorf("%s: trace has %d roots, %d staged children, counts %v", tf.Workload, roots, children, tf.Counts)
		}
	}
}

// One workload through the driver's flags, traced and not.
func TestContractModeRuns(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		if code := run([]string{"--workload", "tier_zipf", "--seed", "5", "--seconds", "1", "--trace", trace, "-smoke", "-out", t.TempDir()}); code != 0 {
			t.Errorf("--trace %s exited %d", trace, code)
		}
	}
	if code := run([]string{"--workload", "no_such_workload", "-smoke", "-out", t.TempDir()}); code == 0 {
		t.Error("an unknown workload must fail")
	}
}

// The golden file pins what is exact at seed 1 at the full sizes: the four
// request streams, the makespan geomean of the paper's problems and the
// Fig. 7 sweep. `go test -run TestGolden -update` rewrites it after a
// deliberate change to the generator or to plan quality.
func TestGolden(t *testing.T) {
	got := golden{Seed: 1, Streams: map[string]string{}}
	for _, w := range workloadSpecs {
		inst, st, err := setupWorkload(w.Name, got.Seed, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		st.close()
		got.Streams[w.Name] = inst.hash
	}
	paper, err := newGenerator(1).population(paperProblemCount)
	if err != nil {
		t.Fatal(err)
	}
	served := make([]float64, len(paper))
	for i, p := range paper {
		_, sim, err := direct(p)
		if err != nil {
			t.Fatal(err)
		}
		served[i] = sim.Makespan
	}
	got.MakespanGeomeanUs = paperGeomeanMicros(served)
	if err := checkTable2Ordering(paper, served); err != nil {
		t.Error(err)
	}
	if got.Fig7TFLOPSGeomean, err = fig7Geomean(); err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := writeJSON(filepath.Join("testdata", "golden_seed1.json"), got, true); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadSpecs {
		if got.Streams[w.Name] != want.Streams[w.Name] {
			t.Errorf("%s: seed-1 request stream %s, golden %s", w.Name, got.Streams[w.Name], want.Streams[w.Name])
		}
	}
	if !closeTo(got.MakespanGeomeanUs, want.MakespanGeomeanUs) || !closeTo(got.Fig7TFLOPSGeomean, want.Fig7TFLOPSGeomean) {
		t.Errorf("makespan geomean %v (golden %v), fig 7 geomean %v (golden %v)",
			got.MakespanGeomeanUs, want.MakespanGeomeanUs, got.Fig7TFLOPSGeomean, want.Fig7TFLOPSGeomean)
	}
}
