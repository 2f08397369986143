package resharding

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"alpacomm/internal/sharding"
)

// AutotuneCandidate is one point of the autotuner's strategy x scheduler
// grid.
type AutotuneCandidate struct {
	Strategy  Strategy
	Scheduler Scheduler
}

func (c AutotuneCandidate) String() string {
	return fmt.Sprintf("%s+%s", c.Strategy, c.Scheduler)
}

// DefaultAutotuneGrid returns the full candidate grid: every real transfer
// strategy crossed with every scheduler. Signal is excluded — it is the
// hypothetical lower bound, not an executable configuration.
func DefaultAutotuneGrid() []AutotuneCandidate {
	strategies := []Strategy{SendRecv, LocalAllGather, GlobalAllGather, Broadcast, Alpa}
	schedulers := []Scheduler{SchedNaive, SchedGreedyLoad, SchedLoadBalanceOnly, SchedEnsemble}
	grid := make([]AutotuneCandidate, 0, len(strategies)*len(schedulers))
	for _, st := range strategies {
		for _, sc := range schedulers {
			grid = append(grid, AutotuneCandidate{Strategy: st, Scheduler: sc})
		}
	}
	return grid
}

// DefaultAutotuneDFSNodes is the deterministic DFS budget the autotuner
// applies when the caller did not set Options.DFSNodes: wall-clock DFS
// budgets would make the winner depend on machine speed and concurrency.
const DefaultAutotuneDFSNodes = 50000

// AutotuneOptions configures an autotuning run.
type AutotuneOptions struct {
	// Base supplies the options shared by all candidates (chunks, trials,
	// seed, budgets); each candidate overrides Strategy and Scheduler and
	// derives its own RNG seed from Base.Seed and its grid position. If
	// Base.DFSNodes is zero it is set to DefaultAutotuneDFSNodes so the
	// search is deterministic.
	Base Options
	// Candidates is the grid to search; nil means DefaultAutotuneGrid.
	Candidates []AutotuneCandidate
	// Workers bounds the planning/simulation concurrency; <= 0 means
	// GOMAXPROCS. The result is identical for every worker count.
	Workers int
	// Cache, when non-nil, memoizes each candidate's plan and simulation —
	// autotuning the structurally identical boundaries of a pipeline then
	// costs one grid sweep total instead of one per boundary.
	Cache *PlanCache
}

// AutotuneTrial reports one candidate's outcome.
type AutotuneTrial struct {
	Candidate AutotuneCandidate
	// Makespan is the candidate's simulated completion time, seconds.
	Makespan float64
	// EffectiveGbps is the candidate's effective bandwidth.
	EffectiveGbps float64
	// Err is the planning/simulation error, if any ("" on success).
	Err string
}

// AutotuneResult is the outcome of an autotuning run.
type AutotuneResult struct {
	// Best is the winning plan (lowest simulated makespan; ties broken by
	// grid position). On a cache hit its devices may be translated relative
	// to the task's meshes — see PlanCache.
	Best *Plan
	// BestSim is the winning plan's simulation.
	BestSim *SimResult
	// BestIndex is the winner's index into the candidate grid.
	BestIndex int
	// Trials reports every candidate in grid order.
	Trials []AutotuneTrial
}

// deriveSeed gives candidate i its own RNG stream: a fixed odd multiplier
// (splitmix64's golden-gamma) keeps streams disjoint for any base seed
// while remaining a pure function of (base, i).
func deriveSeed(base int64, i int) int64 {
	return base ^ (int64(i+1) * -0x61c8864680b583eb)
}

// AutotuneContext searches the strategy x scheduler grid for the fastest
// plan of one resharding task, fanning candidates out over a bounded worker
// pool.
//
// The search is deterministic under a fixed Base.Seed: every candidate
// plans with its own derived RNG and a node-budgeted DFS, candidates are
// evaluated independently, and the winner is picked by (makespan, grid
// position) — so the result does not depend on the worker count or on
// scheduling order.
//
// Cancellation is cooperative: the context is checked between candidates
// (a worker never starts a new grid cell once it fires) and polled inside
// each candidate's DFS between node-budget slices, so cancellation returns
// ctx.Err() within one slice's worth of work with every worker goroutine
// joined. Whether and when the context would fire never changes a
// completed result.
func AutotuneContext(ctx context.Context, task *sharding.Task, opts AutotuneOptions) (*AutotuneResult, error) {
	cands := opts.Candidates
	if cands == nil {
		cands = DefaultAutotuneGrid()
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("resharding: autotune needs at least one candidate")
	}
	base := opts.Base.WithDefaults()
	if base.DFSNodes == 0 {
		base.DFSNodes = DefaultAutotuneDFSNodes
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}

	type outcome struct {
		plan *Plan
		sim  *SimResult
		err  error
	}
	outcomes := make([]outcome, len(cands))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					// Drain without starting new candidates so the feeder
					// never blocks; the joined result reports ctx.Err().
					continue
				}
				o := candidateOptions(base, cands[i], i)
				var out outcome
				if opts.Cache != nil {
					out.plan, out.sim, out.err = opts.Cache.PlanAndSimulateKeyedContext(ctx, CacheKey(task, o), task, o)
				} else {
					out.plan, out.err = NewPlanContext(ctx, task, o)
					if out.err == nil {
						// Trials only compare timings; the winner is
						// re-simulated with a full trace below.
						out.sim, out.err = out.plan.SimulateNoTrace()
					}
				}
				outcomes[i] = out
			}
		}()
	}
	for i := range cands {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &AutotuneResult{BestIndex: -1, Trials: make([]AutotuneTrial, len(cands))}
	for i, out := range outcomes {
		trial := AutotuneTrial{Candidate: cands[i]}
		if out.err != nil {
			trial.Err = out.err.Error()
		} else {
			trial.Makespan = out.sim.Makespan
			trial.EffectiveGbps = out.sim.EffectiveGbps
			if res.BestIndex < 0 || out.sim.Makespan < res.BestSim.Makespan {
				res.Best, res.BestSim, res.BestIndex = out.plan, out.sim, i
			}
		}
		res.Trials[i] = trial
	}
	if res.BestIndex < 0 {
		return nil, fmt.Errorf("resharding: autotune: every candidate failed (first: %s)", res.Trials[0].Err)
	}
	if res.BestSim.Events == nil && res.BestSim.Utilization == nil {
		// Trials ran trace-free; give the winner its full Events timeline
		// and utilization report. The simulator is deterministic, so the
		// timings are the ones the trial measured.
		sim, err := res.Best.Simulate()
		if err != nil {
			return nil, fmt.Errorf("resharding: autotune: re-simulating winner: %v", err)
		}
		res.BestSim = sim
	}
	return res, nil
}

// candidateOptions specialises the base options for grid position i.
func candidateOptions(base Options, c AutotuneCandidate, i int) Options {
	o := base
	o.Strategy = c.Strategy
	o.Scheduler = c.Scheduler
	o.Seed = deriveSeed(base.Seed, i)
	return o
}
