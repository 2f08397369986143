// Command microbench regenerates the paper's communication
// microbenchmarks: Fig. 5a/5b (single sender to multi-GPU receivers) and
// Fig. 6 (the nine Table 2 multi-device resharding cases).
//
// Usage:
//
//	microbench [-fig 5a|5b|6|all] [-scale N] [-json rows.json]
//
// scale divides the message size (1 for the paper's full 1-2 GB tensors).
package main

import (
	"flag"
	"fmt"
	"os"

	alpacomm "alpacomm"
	"alpacomm/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "which figure to run: 5a, 5b, 6, or all")
	scale := flag.Int("scale", 1, "divide message sizes by this factor for faster runs")
	jsonOut := flag.String("json", "", "also record all rows to this JSON file (artifact format)")
	flag.Parse()

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
