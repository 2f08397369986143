// Command microbench regenerates the paper's communication
// microbenchmarks: Fig. 5a/5b (single sender to multi-GPU receivers) and
// Fig. 6 (the nine Table 2 multi-device resharding cases). It also
// measures the netsim core's hot paths (plan build, autotune grid cell,
// served cache miss, served cache hit in both wire formats, arena replay)
// and records ns/op + allocs/op to a JSON artifact — the baseline
// cmd/benchgate gates CI against.
//
// Usage:
//
//	microbench [-fig 5a|5b|6|all] [-scale N] [-netsim BENCH_netsim.json]
//	           [-degraded BENCH_degraded.ci.json] [-churn BENCH_churn.json]
//
// scale divides the message size (1 for the paper's full 1-2 GB tensors).
// With -netsim, -degraded and/or -churn the figure benchmarks are skipped
// unless -fig is given explicitly. -degraded runs the degraded-topology
// scenario pack: the golden boundary planned healthy and under every named
// fault scenario on p3/dgx-a100/mixed, reporting makespan deltas. -churn
// runs the warm-replan benchmark: warm vs cold replan latency and plan
// quality per (preset, fault scenario), plus every registry churn timeline
// replayed through a planner session.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	alpacomm "alpacomm"
	"alpacomm/internal/harness"
)

func main() {
	fig := flag.String("fig", "", "which figure to run: 5a, 5b, 6, or all (default all, or none with -netsim/-degraded)")
	scale := flag.Int("scale", 1, "divide message sizes by this factor for faster runs")
	jsonOut := flag.String("json", "", "also record all rows to this JSON file (artifact format)")
	netsimOut := flag.String("netsim", "", "measure netsim core hot paths (ns/op + allocs/op) and write them to this JSON file")
	degradedOut := flag.String("degraded", "", "run the degraded-topology scenario pack and write it to this JSON file")
	churnOut := flag.String("churn", "", "run the warm-replan churn benchmark and write it to this JSON file")
	flag.Parse()

	ranAux := false
	if *netsimOut != "" {
		ranAux = true
		rows, err := harness.NetsimBench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "microbench: netsim bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(harness.RenderNetsimBenchRows(rows))
		fmt.Println()
		if err := harness.WriteNetsimBenchJSON(*netsimOut, rows); err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *degradedOut != "" {
		ranAux = true
		rows, err := harness.DegradedScenarioPack(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "microbench: degraded scenario pack: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(harness.RenderDegradedRows(rows))
		fmt.Println()
		if err := harness.WriteDegradedJSON(*degradedOut, rows); err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *churnOut != "" {
		ranAux = true
		report, err := harness.ChurnBench(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "microbench: churn bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(harness.RenderChurnReport(report))
		fmt.Println()
		if err := harness.WriteChurnJSON(*churnOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
	}
	if ranAux && *fig == "" {
		return
	}
	if *fig == "" {
		*fig = "all"
	}

	var all []alpacomm.MicroRow
	run := func(name string, f func(int) ([]alpacomm.MicroRow, error)) {
		rows, err := f(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		all = append(all, rows...)
		fmt.Print(alpacomm.RenderMicroRows(name, rows))
		fmt.Println()
	}
	defer func() {
		if *jsonOut == "" {
			return
		}
		if err := harness.WriteMicroJSON(*jsonOut, all); err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
	}()

	switch *fig {
	case "5a":
		run("Fig 5a: single device -> one receiver node (1-4 GPUs)", alpacomm.Fig5aRows)
	case "5b":
		run("Fig 5b: single device -> 1-4 receiver nodes (2 GPUs each)", alpacomm.Fig5bRows)
	case "6":
		run("Fig 6: multi-device to multi-device (Table 2 cases)", alpacomm.Fig6Rows)
	case "all":
		run("Fig 5a: single device -> one receiver node (1-4 GPUs)", alpacomm.Fig5aRows)
		run("Fig 5b: single device -> 1-4 receiver nodes (2 GPUs each)", alpacomm.Fig5bRows)
		run("Fig 6: multi-device to multi-device (Table 2 cases)", alpacomm.Fig6Rows)
	default:
		fmt.Fprintf(os.Stderr, "microbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
