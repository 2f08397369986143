// Command benchgate compares a freshly measured netsim benchmark artifact
// against the committed baseline (BENCH_netsim.json) and fails when the
// zero-alloc serve path regresses. It gates on allocation counts only —
// deterministic across machines — and reports wall times for context
// without failing on them.
//
// Gates:
//
//   - served_cache_hit / served_cache_hit_binary: allocs/op must stay at
//     or below the absolute ceiling (maxHitAllocs, 50). The
//     hit path is pre-serialized end to end; any new allocation is a leak
//     into the hot path, not noise.
//   - served_cache_miss: allocs/op must not exceed the committed baseline
//     by more than the relative slack (missSlack, 20%).
//
// With -cluster it instead gates a distributed-tier artifact written by
// `loadgen -cluster` (BENCH_cluster.json):
//
//   - speedup_8x_vs_1 must reach minClusterSpeedup (6): the
//     8-node tier must absorb the cache-miss load a single node thrashes
//     on.
//
// The tier's three correctness contracts are held by go tests, not by
// this gate: every node serves the same bytes
// (TestTierByteIdenticalAcrossNodes, TestGoldenClusterByteIdentity); a
// tier-wide cold herd costs one computation
// (TestTierCrossNodeSingleflight); a warm restart recomputes nothing
// (TestSnapshotRoundTrip, TestGoldenClusterSnapshotRoundTrip).
//
// With -churn it gates a warm-replan artifact written by
// `microbench -churn` (BENCH_churn.json):
//
//   - every replan row's warm makespan must be at or below its cold
//     makespan — warm replanning never serves a worse plan than a cold
//     search would;
//   - every link-down replan row's warm path must run at no less than
//     minWarmSpeedup (0.67) times the speed of the cold replan:
//     an identity replan does no search, so it may never cost noticeably
//     more than planning afresh. It is not asked to be several times
//     faster: a cold replan whose first candidate schedule is proven
//     optimal skips the search too, and then both cost about the same;
//   - link-down and brownout rows must replan in identity mode with zero
//     impacted units (link faults never change the host-level instance);
//   - every timeline must end healed at the healthy makespan, serve at
//     least one step from cache (the heal-back hit), and serve no step
//     cold.
//
// With -slo it gates the open-loop rows written by `loadgen -open-sim`
// into BENCH_service.json. The open-loop simulator is a pure function of
// its seed, so these gates are exact, not statistical:
//
//   - every mix (poisson, bursty, diurnal) must have a controller-on and
//     a controller-off row;
//   - controller-on rows must hold the corrected p99 within the budget,
//     keep the offered-vs-achieved gap at or below maxSLOGap (0.65), and
//     show the controller actually engaged;
//   - controller-off rows must blow through the same budget — proof the
//     offered load saturates the modeled server and the controller, not
//     slack capacity, holds the SLO;
//   - every candidate row must be byte-identical to the committed
//     baseline row (regenerate the baseline on intentional changes).
//
// Usage:
//
//	benchgate -baseline BENCH_netsim.json -current BENCH_netsim.ci.json
//	benchgate -cluster -current BENCH_cluster.ci.json
//	benchgate -churn -current BENCH_churn.json
//	benchgate -slo -baseline BENCH_service.json -current BENCH_service.ci.json
//
// Exit status 0 when every gate holds, 1 on any regression or missing row.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"alpacomm/internal/harness"
)

// The gates' thresholds; the package comment says what each one guards.
const (
	maxHitAllocs      = 50   // allocs/op ceiling for served cache hits
	missSlack         = 0.20 // relative allocs/op growth allowed on served_cache_miss
	minClusterSpeedup = 6.0  // 8-node vs 1-node throughput ratio
	minWarmSpeedup    = 0.67 // warm vs cold replan speed; below 1 leaves room for timer noise
	maxSLOGap         = 0.65 // offered-vs-achieved gap of a controller-on row
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_netsim.json", "committed baseline artifact")
	currentPath := flag.String("current", "", "freshly measured artifact to gate (required)")
	cluster := flag.Bool("cluster", false, "gate a distributed-tier artifact (loadgen -cluster) instead of the netsim one")
	churn := flag.Bool("churn", false, "gate a warm-replan artifact (microbench -churn) instead of the netsim one")
	slo := flag.Bool("slo", false, "gate open-loop rows (loadgen -open-sim) in a service artifact instead of the netsim one")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	if *cluster {
		os.Exit(gateCluster(*currentPath))
	}
	if *churn {
		os.Exit(gateChurn(*currentPath))
	}
	if *slo {
		os.Exit(gateSLO(*baselinePath, *currentPath))
	}

	baseline, err := readRows(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	current, err := readRows(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}

	failed := false
	report := func(ok bool, format string, args ...interface{}) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
	}

	for _, name := range []string{"served_cache_hit", "served_cache_hit_binary"} {
		row, ok := current[name]
		if !ok {
			report(false, "%s: missing from %s", name, *currentPath)
			continue
		}
		report(row.AllocsPerOp <= maxHitAllocs,
			"%s: %d allocs/op (ceiling %d), %.0f ns/op",
			name, row.AllocsPerOp, maxHitAllocs, row.NsPerOp)
	}

	const miss = "served_cache_miss"
	cur, curOK := current[miss]
	base, baseOK := baseline[miss]
	switch {
	case !curOK:
		report(false, "%s: missing from %s", miss, *currentPath)
	case !baseOK:
		report(false, "%s: missing from baseline %s", miss, *baselinePath)
	default:
		limit := int64(float64(base.AllocsPerOp) * (1 + missSlack))
		report(cur.AllocsPerOp <= limit,
			"%s: %d allocs/op (baseline %d, limit %d), %.0f ns/op",
			miss, cur.AllocsPerOp, base.AllocsPerOp, limit, cur.NsPerOp)
	}

	if failed {
		fmt.Println("benchgate: allocation regression — see FAIL rows above")
		os.Exit(1)
	}
	fmt.Println("benchgate: all gates hold")
}

// clusterArtifact mirrors the gated subset of loadgen's BENCH_cluster.json.
type clusterArtifact struct {
	Speedup8xVs1 float64 `json:"speedup_8x_vs_1"`
}

// gateCluster checks a distributed-tier artifact and returns the exit
// status.
func gateCluster(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	var a clusterArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
		return 1
	}
	failed := false
	report := func(ok bool, format string, args ...interface{}) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
	}
	report(a.Speedup8xVs1 >= minClusterSpeedup,
		"speedup_8x_vs_1: %.1fx (floor %.1fx)", a.Speedup8xVs1, minClusterSpeedup)
	if failed {
		fmt.Println("benchgate: cluster gate failed — see FAIL rows above")
		return 1
	}
	fmt.Println("benchgate: all gates hold")
	return 0
}

// gateChurn checks a warm-replan artifact (microbench -churn) and returns
// the exit status.
func gateChurn(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	var r harness.ChurnReport
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
		return 1
	}
	failed := false
	report := func(ok bool, format string, args ...interface{}) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
	}

	if len(r.Replans) == 0 {
		report(false, "replans: no rows in %s", path)
	}
	presets := map[string]bool{}
	linkDown := map[string]bool{}
	for _, row := range r.Replans {
		presets[row.Preset] = true
		name := row.Preset + "/" + row.Scenario
		// Warm replanning must never serve a worse plan than a cold search
		// would have produced (acceptance rule + identity proof).
		report(row.WarmMakespan <= row.ColdMakespan,
			"%s: warm makespan %.9f vs cold %.9f (%+.2f%%)",
			name, row.WarmMakespan, row.ColdMakespan, row.QualityDeltaPct)
		// Link faults never change the host-level instance, so link-only
		// overlays must replan as identity — zero impact, no search — and
		// so never fall behind the cold replan by more than the floor allows.
		if row.Scenario == "link-down" || row.Scenario == "brownout" {
			report(row.WarmMode == "identity" && row.ImpactedUnits == 0,
				"%s: warm mode %s with %d impacted units (want identity, 0)",
				name, row.WarmMode, row.ImpactedUnits)
		}
		if row.Scenario == "link-down" {
			linkDown[row.Preset] = true
			report(row.Speedup >= minWarmSpeedup,
				"%s: warm replan at %.2fx the speed of cold (floor %.2fx)",
				name, row.Speedup, minWarmSpeedup)
		}
	}
	for p := range presets {
		if !linkDown[p] {
			report(false, "%s: no link-down replan row", p)
		}
	}

	if len(r.Timelines) == 0 {
		report(false, "timelines: no rows in %s", path)
	}
	healed := map[string]float64{}
	for _, row := range r.Timelines {
		name := row.Preset + "/" + row.Scenario
		served := row.Stats.CacheHits + row.Stats.WarmIdentity + row.Stats.WarmSearch +
			row.Stats.WarmRejected + row.Stats.WarmInvalid + row.Stats.Cold
		report(served == int64(row.Steps),
			"%s: %d steps served (hit %d, identity %d, search %d, rejected %d, invalid %d, cold %d)",
			name, served, row.Stats.CacheHits, row.Stats.WarmIdentity, row.Stats.WarmSearch,
			row.Stats.WarmRejected, row.Stats.WarmInvalid, row.Stats.Cold)
		// Every registry timeline ends healed, and the healthy plan was
		// cached before the first step — so at least the final heal must be
		// a cache hit, and no step may fall back to an incumbent-less cold
		// plan.
		report(row.Stats.CacheHits >= 1, "%s: %d cache hits (heal-back must hit)", name, row.Stats.CacheHits)
		report(row.Stats.Cold == 0, "%s: %d cold replans (every step has an incumbent)", name, row.Stats.Cold)
		// All timelines on one preset end healed on the same boundary, so
		// they must agree on the final makespan byte for byte.
		if prev, ok := healed[row.Preset]; ok {
			report(prev == row.FinalMakespan,
				"%s: final healed makespan %.9f (%s's other timelines: %.9f)",
				name, row.FinalMakespan, row.Preset, prev)
		} else {
			healed[row.Preset] = row.FinalMakespan
		}
	}

	if failed {
		fmt.Println("benchgate: churn gate failed — see FAIL rows above")
		return 1
	}
	fmt.Println("benchgate: all gates hold")
	return 0
}

// sloRow mirrors the gated subset of loadgen's open_loop rows.
type sloRow struct {
	Mix            string  `json:"mix"`
	SLO            bool    `json:"slo"`
	GapFraction    float64 `json:"gap_fraction"`
	Served         int     `json:"served"`
	Shed           int     `json:"shed"`
	Degraded       int     `json:"degraded_served"`
	BudgetMs       float64 `json:"budget_ms"`
	CorrectedP99Ms float64 `json:"corrected_p99_ms"`
}

// readOpenLoop returns the open_loop rows of a service artifact both raw
// (for the byte-identity gate) and decoded (for the semantic gates).
func readOpenLoop(path string) ([]json.RawMessage, []sloRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var a struct {
		OpenLoop []json.RawMessage `json:"open_loop"`
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	rows := make([]sloRow, len(a.OpenLoop))
	for i, raw := range a.OpenLoop {
		if err := json.Unmarshal(raw, &rows[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: open_loop[%d]: %v", path, i, err)
		}
	}
	return a.OpenLoop, rows, nil
}

// gateSLO checks the open-loop rows of a service artifact against the
// committed baseline and returns the exit status.
func gateSLO(baselinePath, currentPath string) int {
	curRaw, cur, err := readOpenLoop(currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	baseRaw, _, err := readOpenLoop(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	failed := false
	report := func(ok bool, format string, args ...interface{}) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
	}

	byKey := map[string]sloRow{}
	for _, r := range cur {
		byKey[fmt.Sprintf("%s/slo=%v", r.Mix, r.SLO)] = r
	}
	for _, mix := range []string{"poisson", "bursty", "diurnal"} {
		ctl, okCtl := byKey[mix+"/slo=true"]
		raw, okRaw := byKey[mix+"/slo=false"]
		if !okCtl || !okRaw {
			report(false, "%s: missing controller-on and/or controller-off row in %s", mix, currentPath)
			continue
		}
		report(ctl.BudgetMs > 0 && ctl.CorrectedP99Ms <= ctl.BudgetMs,
			"%s: corrected p99 %.2fms within %.0fms budget", mix, ctl.CorrectedP99Ms, ctl.BudgetMs)
		report(ctl.GapFraction <= maxSLOGap,
			"%s: offered-vs-achieved gap %.3f (ceiling %.3f)", mix, ctl.GapFraction, maxSLOGap)
		report(ctl.Degraded > 0 || ctl.Shed > 0,
			"%s: controller engaged (degraded %d, shed %d)", mix, ctl.Degraded, ctl.Shed)
		// Without the controller the same offered load must violate the
		// budget, otherwise the gate proves nothing about admission.
		report(raw.CorrectedP99Ms > ctl.BudgetMs,
			"%s: uncontrolled corrected p99 %.2fms exceeds the %.0fms budget (load saturates)",
			mix, raw.CorrectedP99Ms, ctl.BudgetMs)
	}

	// The simulator is a pure function of its seed: every candidate row
	// must match the committed baseline byte for byte.
	if len(curRaw) != len(baseRaw) {
		report(false, "open_loop: %d rows, baseline %s has %d", len(curRaw), baselinePath, len(baseRaw))
	} else {
		for i := range curRaw {
			name := fmt.Sprintf("open_loop[%d]", i)
			if i < len(cur) {
				name = fmt.Sprintf("%s/slo=%v", cur[i].Mix, cur[i].SLO)
			}
			report(compactJSON(curRaw[i]) == compactJSON(baseRaw[i]),
				"%s: row byte-identical to baseline", name)
		}
	}

	if failed {
		fmt.Println("benchgate: slo gate failed — see FAIL rows above")
		return 1
	}
	fmt.Println("benchgate: all gates hold")
	return 0
}

// compactJSON normalizes whitespace so the identity gate compares values,
// not indentation.
func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

func readRows(path string) (map[string]harness.NetsimBenchRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []harness.NetsimBenchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]harness.NetsimBenchRow, len(rows))
	for _, r := range rows {
		out[r.Name] = r
	}
	return out, nil
}
