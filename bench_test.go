// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding harness and reports the
// headline quantity as a custom metric:
//
//   - BenchmarkFig5a / BenchmarkFig5b: effective bandwidth (Gbps) of
//     Send/Recv, Alpa and Ours at the largest receiver count;
//   - BenchmarkFig6 / BenchmarkFig8: mean effective bandwidth per method
//     over the nine Table 2 cases;
//   - BenchmarkFig7GPT / BenchmarkFig7UTrans: aggregated training TFLOPS
//     per method (Table 3 cases);
//   - BenchmarkFig9: TFLOPS per overlap variant at 32 micro-batches;
//   - BenchmarkTable1Memory: Table 1 evaluation cost.
//
// Run with: go test -bench=. -benchmem
package alpacomm_test

import (
	"context"
	"strings"
	"testing"

	alpacomm "alpacomm"
	"alpacomm/internal/harness"
)

// microMetric reports per-method mean effective bandwidth for rows
// matching caseFilter ("" = all).
func microMetric(b *testing.B, rows []alpacomm.MicroRow, caseFilter string) {
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, r := range rows {
		if caseFilter != "" && r.Case != caseFilter {
			continue
		}
		sums[r.Method] += r.EffGbps
		counts[r.Method]++
	}
	for m, s := range sums {
		name := strings.ReplaceAll(strings.ToLower(m), "/", "-") + "-Gbps"
		b.ReportMetric(s/counts[m], name)
	}
}

func BenchmarkFig5a(b *testing.B) {
	var rows []alpacomm.MicroRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = alpacomm.Fig5aRows(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	microMetric(b, rows, "4gpu")
}

func BenchmarkFig5b(b *testing.B) {
	var rows []alpacomm.MicroRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = alpacomm.Fig5bRows(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	microMetric(b, rows, "4host")
}

func BenchmarkFig6(b *testing.B) {
	var rows []alpacomm.MicroRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = alpacomm.Fig6Rows(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	microMetric(b, rows, "")
}

func BenchmarkFig8(b *testing.B) {
	var rows []alpacomm.MicroRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = alpacomm.Fig8Rows(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	microMetric(b, rows, "")
}

// e2eMetric reports TFLOPS per method averaged over cases of one model.
func e2eMetric(b *testing.B, rows []alpacomm.E2ERow, model string) {
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, r := range rows {
		if r.Model != model {
			continue
		}
		sums[r.Method] += r.TFLOPS
		counts[r.Method]++
	}
	for m, s := range sums {
		name := strings.ReplaceAll(strings.ReplaceAll(strings.ToLower(m), "/", "-"), " ", "-") + "-TFLOPS"
		b.ReportMetric(s/counts[m], name)
	}
}

func BenchmarkFig7GPT(b *testing.B) {
	var rows []alpacomm.E2ERow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = alpacomm.Fig7Rows(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	e2eMetric(b, rows, "GPT")
}

func BenchmarkFig7UTrans(b *testing.B) {
	var rows []alpacomm.E2ERow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = alpacomm.Fig7Rows(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	e2eMetric(b, rows, "U-Trans")
}

func BenchmarkFig9(b *testing.B) {
	var rows []alpacomm.Fig9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = alpacomm.Fig9Rows()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.MicroBatches == 32 {
			name := strings.ToLower(strings.ReplaceAll(r.Method, "-", "")) + "-TFLOPS"
			b.ReportMetric(r.TFLOPS, name)
		}
	}
}

func BenchmarkTable1Memory(b *testing.B) {
	var m = alpacomm.GPTLayerMemory(1024, 12288, 2, 8)
	for i := 0; i < b.N; i++ {
		m = alpacomm.GPTLayerMemory(1024, 12288, 2, 8)
	}
	b.ReportMetric(float64(m.WeightOptBytes)/(1<<30), "weightopt-GiB")
	b.ReportMetric(float64(m.ActivationBytes)/(1<<20), "activation-MiB")
}

// BenchmarkReshardPlan measures the planner itself (decomposition +
// scheduling) on a Fig. 6-sized problem.
func BenchmarkReshardPlan(b *testing.B) {
	cluster := alpacomm.AWSP3Cluster(4)
	src, err := cluster.Slice([]int{2, 4}, 0)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := cluster.Slice([]int{2, 4}, 8)
	if err != nil {
		b.Fatal(err)
	}
	shape, _ := alpacomm.NewShape(1024, 1024, 64)
	srcSpec, _ := alpacomm.ParseSpec("RS01R")
	dstSpec, _ := alpacomm.ParseSpec("S01RR")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task, err := alpacomm.NewReshardTask(shape, alpacomm.Float32, src, srcSpec, dst, dstSpec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := alpacomm.PlanReshard(task, alpacomm.ReshardOptions{
			Strategy:  alpacomm.StrategyBroadcast,
			Scheduler: alpacomm.SchedulerEnsemble,
			Seed:      1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// boundaryTask builds the resharding at stage boundary s of a 9-stage
// pipeline on a 9-host p3 cluster: one (2,2) mesh per host, the boundary
// tensor resharded S01R -> S0R between consecutive hosts. All 8 boundaries
// are structurally congruent — the cross-boundary cache's target shape.
func boundaryTask(b *testing.B, cluster *alpacomm.HeteroCluster, s int) *alpacomm.ReshardTask {
	b.Helper()
	src, err := cluster.Slice([]int{2, 2}, 4*s)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := cluster.Slice([]int{2, 2}, 4*(s+1))
	if err != nil {
		b.Fatal(err)
	}
	shape, _ := alpacomm.NewShape(512, 1024)
	srcSpec, _ := alpacomm.ParseSpec("S01R")
	dstSpec, _ := alpacomm.ParseSpec("S0R")
	task, err := alpacomm.NewReshardTask(shape, alpacomm.Float32, src, srcSpec, dst, dstSpec)
	if err != nil {
		b.Fatal(err)
	}
	return task
}

var boundaryOpts = alpacomm.ReshardOptions{
	Strategy:  alpacomm.StrategyBroadcast,
	Scheduler: alpacomm.SchedulerEnsemble,
	Seed:      1,
}

// Benchmark8BoundarySequential is the seed's hot path: every stage boundary
// of an 8-boundary pipeline is planned and simulated from scratch with the
// sequential SchedEnsemble search.
func Benchmark8BoundarySequential(b *testing.B) {
	cluster := alpacomm.AWSP3Cluster(9)
	for i := 0; i < b.N; i++ {
		for s := 0; s < 8; s++ {
			plan, err := alpacomm.PlanReshard(boundaryTask(b, cluster, s), boundaryOpts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Simulate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Benchmark8BoundaryCached is the same workload through the plan cache: the
// first boundary plans, the remaining seven hit the translated entry.
func Benchmark8BoundaryCached(b *testing.B) {
	cluster := alpacomm.AWSP3Cluster(9)
	for i := 0; i < b.N; i++ {
		cache := alpacomm.NewReshardCache()
		for s := 0; s < 8; s++ {
			if _, err := cache.SimulateContext(context.Background(), boundaryTask(b, cluster, s), boundaryOpts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Benchmark8BoundaryAutotuneCached sweeps the full strategy x scheduler
// grid concurrently for every boundary, with the cache collapsing the 8
// congruent boundaries into one sweep.
func Benchmark8BoundaryAutotuneCached(b *testing.B) {
	cluster := alpacomm.AWSP3Cluster(9)
	for i := 0; i < b.N; i++ {
		cache := alpacomm.NewReshardCache()
		for s := 0; s < 8; s++ {
			if _, err := alpacomm.AutotuneReshardContext(context.Background(), boundaryTask(b, cluster, s), alpacomm.AutotuneOptions{
				Base:  boundaryOpts,
				Cache: cache,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNetsim measures the discrete-event engine on a contention-heavy
// op graph (the workload shared with bench/'s netsim.replay_us),
// rebuilding the net cold every iteration.
func BenchmarkNetsim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := alpacomm.NewClusterNet(alpacomm.AWSP3Cluster(4))
		if err := harness.NetsimReplayTransfers(net); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
