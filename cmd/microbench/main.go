// Command microbench regenerates the paper's communication
// microbenchmarks: Fig. 5a/5b (single sender to multi-GPU receivers) and
// Fig. 6 (the nine Table 2 multi-device resharding cases).
//
// Usage:
//
//	microbench [-fig 5a|5b|6|all] [-scale N] [-json rows.json]
//	           [-degraded BENCH_degraded.ci.json]
//
// scale divides the message size (1 for the paper's full 1-2 GB tensors).
// With -degraded the figure benchmarks are skipped unless -fig is given
// explicitly: it runs the degraded-topology scenario pack — the golden
// boundary planned healthy and under every named fault scenario on
// p3/dgx-a100/mixed, reporting makespan deltas.
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
	fig := flag.String("fig", "", "which figure to run: 5a, 5b, 6, or all (default all, or none with -degraded)")
	scale := flag.Int("scale", 1, "divide message sizes by this factor for faster runs")
	jsonOut := flag.String("json", "", "also record all rows to this JSON file (artifact format)")
	degradedOut := flag.String("degraded", "", "run the degraded-topology scenario pack and write it to this JSON file")
	flag.Parse()

	if *degradedOut != "" {
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
		if *fig == "" {
			return
		}
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
