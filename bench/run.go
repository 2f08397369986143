package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// runConfig is what one run of one workload is asked to do.
type runConfig struct {
	seed    uint64
	seconds float64
	sz      sizes
	// setups is how many times set-up is timed, once before the first
	// round and then once after each; setup_s is the fastest.
	setups int
	// maxRounds caps the rounds of the timed loop (0 = until seconds are
	// up); the smoke pass uses it to stay short.
	maxRounds int
	outDir    string
}

// runReport is the outcome of one run of one workload, traced or not.
type runReport struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Stream    string   `json:"request_stream_sha256"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Rounds    int      `json:"rounds"`
	// Samples is how many latencies a quoted percentile rests on: one
	// round's on an untraced run, the untraced rounds' pooled on a traced
	// one. Tail is the highest percentile that many samples support.
	Samples int                    `json:"latency_samples"`
	Tail    float64                `json:"highest_supported_percentile"`
	Metrics map[string]metricValue `json:"metrics"`
}

// sampleNote states the sample a quoted percentile rests on.
func (r *runReport) sampleNote() string {
	per := "latency samples per round"
	if r.Traced {
		per = "latency samples over the untraced rounds"
	}
	return fmt.Sprintf("%d %s (p%g is the highest percentile with ten samples beyond it)", r.Samples, per, r.Tail)
}

// timedSetup sets a workload up once and reports how long that took.
func timedSetup(name string, cfg runConfig) (*instance, *state, float64, error) {
	t0 := time.Now()
	inst, st, err := setupWorkload(name, cfg.seed, cfg.sz)
	return inst, st, time.Since(t0).Seconds(), err
}

// servedMakespans folds per-operation answers into one makespan per
// distinct problem.
func servedMakespans(inst *instance, opMakespan []float64) []float64 {
	served := make([]float64, len(inst.probs))
	for i, o := range inst.ops {
		if opMakespan[i] > 0 {
			served[o.Problem] = opMakespan[i]
		}
	}
	return served
}

// paperGeomeanMicros is the geometric mean, in simulated microseconds, of
// the makespans the workload served for the paper's problems: the same set
// at every seed, so the number is exact for a given planner.
func paperGeomeanMicros(served []float64) float64 {
	var us []float64
	for _, m := range served[:min(paperProblemCount, len(served))] {
		if m > 0 {
			us = append(us, m*1e6)
		}
	}
	return geomean(us)
}

// runUntraced measures a workload's end-to-end metrics: rounds of the same
// operation list, each from a fresh state, until the time is up.
func runUntraced(name string, cfg runConfig) (*runReport, error) {
	inst, st, setupS, err := timedSetup(name, cfg)
	if err != nil {
		return nil, err
	}
	// Set-up is timed again after each round rather than fifteen times in a
	// row, so that the timings do not all ride on what the machine was doing
	// in the run's first second. Like every speed here (see summarize) it is
	// read from the best of them: over eight runs of tier_zipf at one seed
	// the median of the fifteen ranged over 28%, the fastest over 12%.
	setups := []float64{setupS}
	opMakespan := make([]float64, len(inst.ops))
	var rounds []roundStats
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for {
		began := time.Now()
		rounds = append(rounds, runRound(inst, st, nil, opMakespan).stats())
		if len(setups) < cfg.setups {
			_, again, secs, err := timedSetup(name, cfg)
			if err != nil {
				st.close()
				return nil, err
			}
			again.close()
			setups = append(setups, secs)
		}
		if cfg.maxRounds > 0 && len(rounds) >= cfg.maxRounds {
			break
		}
		if cfg.maxRounds == 0 && time.Now().Add(time.Since(began)).After(deadline) {
			break // another round would not finish in time
		}
		next, err := inst.fresh()
		if err != nil {
			st.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		st.close()
		st = next
	}
	defer st.close()

	rep := &runReport{Workload: name, Seed: cfg.seed, Stream: inst.hash, Correct: true}
	served := servedMakespans(inst, opMakespan)
	if err := inst.verify(st, served); err != nil {
		rep.Correct = false
		rep.Problems = append(rep.Problems, "output check: "+err.Error())
	}
	// Measured while the last state and the inputs are still referenced:
	// the program's caches, memos and journals, plus the generator's own
	// constant share. It is the same after every round of a run.
	heap := retainedHeapMB()
	runtime.KeepAlive(inst)
	runtime.KeepAlive(st)
	s := summarize(rounds)
	rep.Attempted, rep.Failed, rep.Rounds, rep.Samples = s.attempted, s.failed, s.rounds, s.samples
	rep.Tail = highestPercentile(s.samples)
	if s.failed > 0 {
		rep.Correct = false
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d operations failed", s.failed, s.attempted))
	}
	var missing []string
	rep.Metrics, missing = metricSet(endToEndSpecs, map[string]float64{
		"setup_s":             slices.Min(setups),
		"throughput_ops_s":    s.throughput,
		"goodput_ops_s":       s.goodput,
		"latency_p50_us":      s.p50,
		"slo_met_fraction":    s.sloMet,
		"makespan_geomean_us": paperGeomeanMicros(served),
		"cpu_us_per_op":       s.cpuPerOp,
		"alloc_bytes_per_op":  s.allocPerOp,
		"heap_retained_mb":    heap,
	})
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %v", name, missing)
	}
	return rep, nil
}
