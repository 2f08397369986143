// Command bench is the repository's benchmark: four workloads driven
// through the planner's and the plan-serving tier's public entry points,
// end-to-end metrics measured with tracing off, and a separate traced pass
// that times the calls into each layer from outside. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and print one JSON result line (the driver's contract); empty runs all four, untraced then traced")
	seed := fs.Uint64("seed", 1, "seed of the request generator")
	seconds := fs.Float64("seconds", runSeconds, "how long each workload's timed loop runs")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "out", "directory for result.json and trace.json")
	aa := fs.Bool("aa", false, "run two full untraced sets back to back and compare them against the bounds")
	smoke := fs.Bool("smoke", false, "tiny fixed operation counts: every code path in seconds, numbers meaningless")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		data, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(data)
		return 0
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, sz: fullSizes, setups: 15, outDir: *out}
	if *smoke {
		cfg.sz, cfg.setups, cfg.maxRounds = smokeSizes, 2, 2
	}
	switch {
	case *workload != "":
		return runContract(*workload, *trace == 1, cfg)
	case *aa:
		return runAA(cfg)
	default:
		return runAll(cfg)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// runWorkload runs one workload, traced (per-layer metrics and spans) or not
// (end-to-end metrics, no spans).
func runWorkload(name string, traced bool, cfg runConfig) (*runReport, *traceFile, error) {
	if traced {
		return runTraced(name, cfg)
	}
	rep, err := runUntraced(name, cfg)
	return rep, nil, err
}

// runContract is one run as the driver asks for it: one workload, traced or
// not, the result as one JSON object on the last line of standard output.
func runContract(name string, traced bool, cfg runConfig) int {
	rep, tf, err := runWorkload(name, traced, cfg)
	if err == nil && traced {
		err = writeOut(cfg.outDir, "trace.json", []*traceFile{tf})
	}
	if err != nil {
		return fail(err)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "bench:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s seed %d: %d rounds, %s\n", name, cfg.seed, rep.Rounds, rep.sampleNote())
	fmt.Println(string(line))
	return 0
}

func writeOut(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, name), v, name != "trace.json")
}

// environment is recorded with every result: numbers from different
// machines or toolchains are not comparable.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
	}
	return env
}

// resultFile is out/result.json.
type resultFile struct {
	Env     environment  `json:"env"`
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runReport `json:"runs"`
	Checks  []string     `json:"checks"`
}

//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// golden holds the values that are exact at the golden seed: the request
// streams, the plan quality every workload serves, and the Fig. 7 sweep.
type golden struct {
	Seed              uint64            `json:"seed"`
	Streams           map[string]string `json:"request_stream_sha256"`
	MakespanGeomeanUs float64           `json:"makespan_geomean_us"`
	Fig7TFLOPSGeomean float64           `json:"pipeline.fig7_tflops_geomean"`
}

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// checkGolden compares a run at the golden seed against the golden values.
func checkGolden(g golden, r *runReport) []string {
	var bad []string
	if !r.Traced && r.Stream != g.Streams[r.Workload] {
		bad = append(bad, fmt.Sprintf("%s: request stream %s, golden %s", r.Workload, r.Stream, g.Streams[r.Workload]))
	}
	for name, want := range map[string]float64{"makespan_geomean_us": g.MakespanGeomeanUs, "pipeline.fig7_tflops_geomean": g.Fig7TFLOPSGeomean} {
		if m, ok := r.Metrics[name]; ok && !closeTo(m.Value, want) {
			bad = append(bad, fmt.Sprintf("%s: %s = %v, golden %v", r.Workload, name, m.Value, want))
		}
	}
	return bad
}

// closeTo allows for the last digits of a geometric mean differing between
// math library versions; a plan change moves the value by far more.
func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

// runAll is the whole benchmark: every workload untraced, then traced, the
// metrics printed by name with their units, the outputs checked.
func runAll(cfg runConfig) int {
	gold, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	res := resultFile{Env: readEnvironment(), Seed: cfg.seed, Seconds: cfg.seconds}
	var traces []*traceFile
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloadSpecs {
			rep, tf, err := runWorkload(w.Name, traced, cfg)
			if err != nil {
				return fail(err)
			}
			if traced {
				traces = append(traces, tf)
			}
			res.Runs = append(res.Runs, rep)
			for _, p := range rep.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.Name, p)
			}
			ok = ok && rep.Correct
			if cfg.seed == gold.Seed && cfg.maxRounds == 0 {
				for _, bad := range checkGolden(gold, rep) {
					fmt.Fprintln(os.Stderr, "bench: golden:", bad)
					ok = false
				}
			}
		}
	}
	untraced, traced := res.Runs[:len(workloadSpecs)], res.Runs[len(workloadSpecs):]
	printTable("End-to-end metrics (tracing off; speeds from the best round, shares and bytes the median over rounds)", endToEndSpecs, untraced)
	for _, r := range untraced {
		fmt.Printf("  %-10s failed_fraction %g (%d of %d); %d rounds, %s\n",
			r.Workload, float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted, r.Rounds, r.sampleNote())
	}
	printTable("Per-layer metrics (traced pass; medians of spans around public calls) and what each should move", perLayerSpecs, traced)
	for _, r := range traced {
		fmt.Printf("  %-10s bench.latency_p99_us rests on %s\n", r.Workload, r.sampleNote())
	}
	res.Checks = []string{"served plans equal the direct NewPlanContext + SimulateNoTrace plan", "JSON and binary answers carry the same plan",
		"every server of a state answers the same bytes", "Table 2: ours <= Alpa <= send/recv"}
	if cfg.seed == gold.Seed && cfg.maxRounds == 0 {
		res.Checks = append(res.Checks, "request streams, makespan_geomean_us and pipeline.fig7_tflops_geomean equal testdata/golden_seed1.json")
	}
	if err := writeOut(cfg.outDir, "result.json", res); err != nil {
		return fail(err)
	}
	if err := writeOut(cfg.outDir, "trace.json", traces); err != nil {
		return fail(err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: an output check did not pass")
		return 1
	}
	fmt.Printf("\nall output checks passed; wrote %s and %s\n", filepath.Join(cfg.outDir, "result.json"), filepath.Join(cfg.outDir, "trace.json"))
	return 0
}

// printTable prints one row per metric, one column per workload, and for a
// per-layer metric what it is expected to move.
func printTable(title string, specs []metricSpec, runs []*runReport) {
	fmt.Printf("\n%s\n%-36s %-8s", title, "metric", "unit")
	for _, r := range runs {
		fmt.Printf(" %14s", r.Workload)
	}
	fmt.Println()
	for _, s := range specs {
		fmt.Printf("%-36s %-8s", s.Name, s.Unit)
		for _, r := range runs {
			fmt.Printf(" %14.6g", r.Metrics[s.Name].Value)
		}
		if s.Moves != "" {
			fmt.Printf("  -> %s", s.Moves)
		}
		fmt.Println()
	}
}

// worse is how much worse b is than a as a share of a, in the metric's own
// direction; negative when b is better.
func worse(s metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs the benchmark twice on the same code and holds the second set
// to the first within every metric's bound: the instrument checked against
// itself before it is trusted with a change.
func runAA(cfg runConfig) int {
	var sets [2][]*runReport
	for i := range sets {
		for _, w := range workloadSpecs {
			rep, err := runUntraced(w.Name, cfg)
			if err != nil {
				return fail(err)
			}
			if !rep.Correct {
				return fail(fmt.Errorf("%s: %v", w.Name, rep.Problems))
			}
			sets[i] = append(sets[i], rep)
		}
	}
	breaches := 0
	fmt.Printf("A/A: two sets of %gs runs at seed %d; positive = second set worse\n", cfg.seconds, cfg.seed)
	fmt.Printf("%-22s %-10s %14s %14s %9s %7s\n", "metric", "workload", "first", "second", "worse", "bound")
	for _, s := range endToEndSpecs {
		for i, w := range workloadSpecs {
			a, b := sets[0][i].Metrics[s.Name].Value, sets[1][i].Metrics[s.Name].Value
			d := worse(s, a, b)
			mark := ""
			if d > *s.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-22s %-10s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", s.Name, w.Name, a, b, 100*d, 100**s.Bound, mark)
		}
	}
	for i, w := range workloadSpecs {
		if sets[0][i].Stream != sets[1][i].Stream {
			fmt.Printf("%s: request streams differ between the sets\n", w.Name)
			breaches++
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breaches\n", breaches)
		return 1
	}
	fmt.Println("request streams identical; no metric outside its bound")
	return 0
}
