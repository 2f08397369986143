package resharding

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"alpacomm/internal/mesh"
	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// slowTask builds a resharding whose ensemble spends every search budget
// (measured: ~100ns/node), so a large DFS budget makes planning take long
// enough to be interrupted mid-search. Nothing may end the ensemble early:
// every unit can be sent from either source host, so the closed-form
// candidates leave a gap to the floor (checked below). A schedule at the
// floor exists — a target search taking the tasks in index order reaches
// 9.5232e-06 s — but the ensemble's target search (tasks longest first)
// spends its 8 192 nodes without it, because its dominance table misses
// states that differ only by swapping the two sender hosts, and greedy and
// the improvement DFS end at 9.6e-06 s: the plan is never proven.
func slowTask(t *testing.T) *sharding.Task {
	t.Helper()
	c := mesh.AWSP3Cluster(4)
	src, err := c.Slice([]int{2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Slice([]int{2, 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(62, 96), tensor.Float32,
		src, sharding.MustParse("RS1"), dst, sharding.MustParse("S1S0"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1}.WithDefaults()
	hostTasks := buildHostTasks(task, opts)
	if n := len(hostTasks); n > 20 {
		t.Fatalf("slowTask has %d units; the ensemble runs its DFS on at most 20", n)
	}
	bound := schedule.LowerBound(hostTasks)
	for name, p := range map[string]schedule.Plan{
		"Naive":            schedule.Naive(hostTasks),
		"LoadBalanceOnly":  schedule.LoadBalanceOnly(hostTasks),
		"GreedyRandomized": schedule.GreedyRandomized(hostTasks, opts.Trials, rand.New(rand.NewSource(opts.Seed))),
	} {
		span, err := schedule.Makespan(hostTasks, p)
		if err != nil {
			t.Fatal(err)
		}
		if span <= bound {
			t.Fatalf("slowTask: %s meets the lower bound (%g <= %g), so the ensemble would end before its DFS", name, span, bound)
		}
	}
	polls := 0
	schedule.EnsembleNodesStop(hostTasks, 4*schedule.StopStride, opts.Trials, rand.New(rand.NewSource(opts.Seed)), func() bool { polls++; return false })
	if polls == 0 {
		t.Fatal("slowTask: the ensemble DFS ended before its first stop poll; it must run until its budget or a cancellation")
	}
	return task
}

// TestSlowTaskSpendsEveryBudget: a plan that is never proven spends
// exactly its budgets, read from the plan's exit report as counts, never
// from a clock — the target search its 8 192 nodes plus the node that
// finds them spent, the DFS its budget plus that node, and greedy trials.
func TestSlowTaskSpendsEveryBudget(t *testing.T) {
	const budget = 4 * schedule.StopStride
	plan, err := NewPlan(slowTask(t), Options{Scheduler: SchedEnsemble, Seed: 1, DFSNodes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if r := plan.Report; r.Proven || r.TargetNodes != 8193 || r.DFSNodes != budget+1 || r.GreedyTrials <= 0 {
		t.Errorf("report %+v; want unproven with 8193 target nodes, %d DFS nodes and greedy trials", r, budget+1)
	}
}

// TestPlannerMatchesFreeFunctions: a session plan and autotune result are
// byte-identical to the sessionless NewPlan / AutotuneContext path.
func TestPlannerMatchesFreeFunctions(t *testing.T) {
	c := microCluster(2)
	task := autotuneTask(t, c, 0, 4)
	opts := Options{Seed: 7}

	p := NewPlanner(WithTopology(c), WithDefaultPlanOptions(opts))
	plan, sim, err := p.Plan(context.Background(), task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewPlan(autotuneTask(t, c, 0, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	directSim, err := direct.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Makespan != directSim.Makespan || sim.NumOps != directSim.NumOps {
		t.Errorf("session sim (%g, %d) != direct (%g, %d)", sim.Makespan, sim.NumOps, directSim.Makespan, directSim.NumOps)
	}
	for i := range plan.SenderOf {
		if plan.SenderOf[i] != direct.SenderOf[i] {
			t.Fatalf("sender of unit %d: session %d, direct %d", i, plan.SenderOf[i], direct.SenderOf[i])
		}
	}

	res, err := p.Autotune(context.Background(), task, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	directRes, err := AutotuneContext(context.Background(), autotuneTask(t, c, 0, 4), AutotuneOptions{Base: Options{Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestIndex != directRes.BestIndex || res.BestSim.Makespan != directRes.BestSim.Makespan {
		t.Errorf("session autotune (best %d, %g) != direct (best %d, %g)",
			res.BestIndex, res.BestSim.Makespan, directRes.BestIndex, directRes.BestSim.Makespan)
	}
}

// TestPlannerTopologyMismatch: a session pinned to one topology rejects
// tasks living on another.
func TestPlannerTopologyMismatch(t *testing.T) {
	p := NewPlanner(WithTopology(mesh.AWSP3Cluster(4)))
	other := microCluster(2)
	if _, _, err := p.Plan(context.Background(), autotuneTask(t, other, 0, 4), Options{}); err == nil {
		t.Fatal("planning a foreign-topology task should fail")
	}
	if _, err := p.Autotune(context.Background(), autotuneTask(t, other, 0, 4), Options{}); err == nil {
		t.Fatal("autotuning a foreign-topology task should fail")
	}
}

// settleGoroutines polls until the goroutine count returns to at most
// baseline (with slack for runtime helpers) or the deadline passes.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestAutotuneCancellation pins the acceptance criterion: cancelling a
// running grid search returns ctx.Err() within one candidate's node-budget
// slice — far sooner than the search could finish — and leaks no worker
// goroutine.
func TestAutotuneCancellation(t *testing.T) {
	task := slowTask(t)
	// ~1<<40 DFS nodes per ensemble candidate: days of search if
	// cancellation failed to reach inside a candidate.
	p := NewPlanner(
		WithParallelism(2),
		WithDefaultPlanOptions(Options{Seed: 1, DFSNodes: 1 << 40}),
	)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := p.Autotune(ctx, task, Options{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled autotune returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("autotune did not return after cancellation")
	}
	// A 2048-node DFS slice is ~0.2ms of work; returning within a second
	// of cancel (generous for -race) proves the abort reached inside the
	// running candidate rather than waiting out its budget.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled autotune took %v", elapsed)
	}
	settleGoroutines(t, baseline)
}

// TestAutotuneDeadline: a context deadline aborts the same way.
func TestAutotuneDeadline(t *testing.T) {
	task := slowTask(t)
	p := NewPlanner(WithDefaultPlanOptions(Options{Seed: 1, DFSNodes: 1 << 40}))
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.Autotune(ctx, task, Options{}); err != context.DeadlineExceeded {
		t.Fatalf("deadline autotune returned %v, want context.DeadlineExceeded", err)
	}
	settleGoroutines(t, baseline)
}

// TestCacheWaiterCancelDoesNotPoison pins the satellite requirement: a
// coalesced waiter that cancels gets ctx.Err() immediately, while the
// leader and every other waiter complete normally and the entry stays
// cached.
func TestCacheWaiterCancelDoesNotPoison(t *testing.T) {
	task := slowTask(t)
	// ~2M nodes x 5 ensemble members is a few hundred ms of planning —
	// long enough that waiters reliably join mid-flight, short enough to
	// complete under -race.
	opts := Options{Scheduler: SchedEnsemble, Seed: 1, DFSNodes: 2_000_000}.WithDefaults()
	key := CacheKey(task, opts)
	cache := NewPlanCache()

	type result struct {
		sim *SimResult
		err error
	}
	leader := make(chan result, 1)
	go func() {
		_, sim, err := cache.PlanAndSimulateKeyedContext(context.Background(), key, task, opts)
		leader <- result{sim, err}
	}()
	// Wait for the leader to register its miss so later callers coalesce.
	for start := time.Now(); ; {
		if cache.Stats().Misses == 1 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("leader never registered its miss")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// A second healthy waiter joins before the cancelled one departs.
	healthy := make(chan result, 1)
	go func() {
		_, sim, err := cache.PlanAndSimulateKeyedContext(context.Background(), key, task, opts)
		healthy <- result{sim, err}
	}()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := cache.PlanAndSimulateKeyedContext(cancelled, key, task, opts)
	if err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled waiter blocked for %v", elapsed)
	}

	lr := <-leader
	if lr.err != nil {
		t.Fatalf("leader failed after a waiter cancelled: %v", lr.err)
	}
	hr := <-healthy
	if hr.err != nil {
		t.Fatalf("healthy waiter failed after another waiter cancelled: %v", hr.err)
	}
	if hr.sim.Makespan != lr.sim.Makespan {
		t.Errorf("waiter makespan %g != leader %g", hr.sim.Makespan, lr.sim.Makespan)
	}
	if _, _, ok := cache.LookupKeyed(key); !ok {
		t.Error("entry was not retained after a waiter cancelled")
	}
	st := cache.Stats()
	if st.Entries != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 entry / 1 miss", st)
	}
}

// TestCacheLeaderCancelForgotten: a cancelled leader reports ctx.Err() to
// itself and its live waiters, and the key is forgotten — the next caller
// plans afresh and succeeds.
func TestCacheLeaderCancelForgotten(t *testing.T) {
	task := slowTask(t)
	opts := Options{Scheduler: SchedEnsemble, Seed: 1, DFSNodes: 1 << 40}.WithDefaults()
	key := CacheKey(task, opts)
	cache := NewPlanCache()

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, _, err := cache.PlanAndSimulateKeyedContext(ctx, key, task, opts)
		errs <- err
	}()
	for start := time.Now(); cache.Stats().Misses == 0; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("leader never registered its miss")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	// The failure is transient: it must not be replayed to later callers.
	quick := Options{Scheduler: SchedEnsemble, Seed: 1, DFSNodes: 10_000}.WithDefaults()
	if _, _, err := cache.PlanAndSimulateKeyedContext(context.Background(), CacheKey(task, quick), task, quick); err != nil {
		t.Fatalf("fresh plan after a cancelled leader failed: %v", err)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Errorf("cancelled leader's entry should be forgotten, stats %+v", st)
	}
}

// TestCacheLeaderCancelWaiterRetries: a healthy waiter coalesced onto a
// leader whose own context cancels must not inherit that cancellation —
// its request was never attempted, the errored entry is forgotten, so the
// waiter retries as a fresh leader and succeeds.
func TestCacheLeaderCancelWaiterRetries(t *testing.T) {
	task := slowTask(t)
	opts := Options{Scheduler: SchedEnsemble, Seed: 1, DFSNodes: 2_000_000}.WithDefaults()
	key := CacheKey(task, opts)
	cache := NewPlanCache()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := cache.PlanAndSimulateKeyedContext(leaderCtx, key, task, opts)
		leaderErr <- err
	}()
	for start := time.Now(); cache.Stats().Misses == 0; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("leader never registered its miss")
		}
		time.Sleep(100 * time.Microsecond)
	}

	type result struct {
		sim *SimResult
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		_, sim, err := cache.PlanAndSimulateKeyedContext(context.Background(), key, task, opts)
		waiter <- result{sim, err}
	}()
	// Let the waiter coalesce onto the in-flight leader (planning takes
	// hundreds of ms; 10ms is plenty to join, and the retry path is
	// exercised either way), then kill the leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	wr := <-waiter
	if wr.err != nil {
		t.Fatalf("healthy waiter inherited the leader's cancellation: %v", wr.err)
	}
	if wr.sim == nil || wr.sim.Makespan <= 0 {
		t.Fatalf("waiter result degenerate: %+v", wr.sim)
	}
	if _, _, ok := cache.LookupKeyed(key); !ok {
		t.Error("the waiter's retry should have left a completed entry")
	}
}

// TestPlannerConcurrentSharedKey: many goroutines planning one congruent
// problem through a session compute it exactly once (run under -race).
func TestPlannerConcurrentSharedKey(t *testing.T) {
	c := microCluster(2)
	p := NewPlanner(WithTopology(c), WithDefaultPlanOptions(Options{Seed: 3, DFSNodes: 100_000}))
	const n = 16
	var wg sync.WaitGroup
	sims := make([]*SimResult, n)
	errs := make([]error, n)
	tasks := make([]*sharding.Task, n)
	for i := range tasks {
		tasks[i] = autotuneTask(t, c, 0, 4)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sims[i], errs[i] = p.Simulate(context.Background(), tasks[i], Options{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if sims[i].Makespan != sims[0].Makespan {
			t.Errorf("goroutine %d makespan %g != %g", i, sims[i].Makespan, sims[0].Makespan)
		}
	}
	st := p.Cache().Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("cache stats %+v, want exactly 1 miss and %d hits", st, n-1)
	}
}
