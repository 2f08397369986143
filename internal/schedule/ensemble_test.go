package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Where the candidate loop ends: the first candidate whose offer leaves the
// incumbent at provenBound (ClosedForm's Naive, LPT and witness, then
// Search's: the target search, GreedyRandomized and the DFS) — the DFS
// proving its own incumbent included — or exitNone when even the search
// ends above it.
const (
	exitNaive  = "Naive"
	exitLPT    = "LoadBalanceOnly"
	exitWit    = "witness"
	exitTarget = "target"
	exitGreedy = "GreedyRandomized"
	exitDFS    = "DFSPruningNodesStop"
	exitNone   = "none"
)

func mustMakespan(t *testing.T, tasks []Task, p Plan) float64 {
	t.Helper()
	m, err := Makespan(tasks, p)
	if err != nil {
		t.Fatalf("makespan: %v", err)
	}
	return m
}

// witnessPlan builds the witness as ClosedForm does — the load provenFloor
// names, launched first in the order witnessOrder backtracks, then the rest
// in LPT order, from LPT's senders — and returns it with its load, or false
// where there is none.
func witnessPlan(tasks []Task) (Plan, serialLoad, bool) {
	_, load := provenFloor(tasks)
	if load.tasks == 0 {
		return Plan{}, load, false
	}
	lpt := LoadBalanceOnly(tasks)
	order, ok := witnessOrder(tasks, &load, lpt.Order, make([]int, 0, len(tasks)))
	return Plan{Sender: lpt.Sender, Order: order}, load, ok
}

// closedFormCandidates lists ClosedForm's candidates in offer order: Naive,
// LoadBalanceOnly and, where there is one, the witness.
func closedFormCandidates(tasks []Task) []Plan {
	candidates := []Plan{Naive(tasks), LoadBalanceOnly(tasks)}
	if w, _, ok := witnessPlan(tasks); ok {
		candidates = append(candidates, w)
	}
	return candidates
}

// ensembleExit works out the exit from the definitions, building every
// candidate eagerly, the target search under targetBudget nodes (see
// referenceEnsembleBudgets) and the DFS as the reference search under
// dfsNodes.
func ensembleExit(t *testing.T, tasks []Task, trials int, seed int64, targetBudget, dfsNodes int) string {
	t.Helper()
	pb := provenBound(tasks)
	w, _, witness := witnessPlan(tasks)
	target, found, _ := targetSearch(tasks, pb, targetBudget, true)
	switch {
	case mustMakespan(t, tasks, Naive(tasks)) <= pb:
		return exitNaive
	case mustMakespan(t, tasks, LoadBalanceOnly(tasks)) <= pb:
		return exitLPT
	case witness && mustMakespan(t, tasks, w) <= pb:
		return exitWit
	case found && mustMakespan(t, tasks, target) <= pb:
		return exitTarget
	case mustMakespan(t, tasks, GreedyRandomized(tasks, trials, rand.New(rand.NewSource(seed)))) <= pb:
		return exitGreedy
	case len(tasks) <= 20 && mustMakespan(t, tasks, referenceDFSNodes(tasks, dfsNodes)) <= pb:
		return exitDFS
	}
	return exitNone
}

// receiverOnlyBound is provenBound without the forced-sender loads: every
// task is given a second candidate sender no other task names.
func receiverOnlyBound(tasks []Task) float64 {
	free := make([]Task, len(tasks))
	for i, tk := range tasks {
		tk.SenderHosts = append(append([]int(nil), tk.SenderHosts...), 1000+i)
		free[i] = tk
	}
	return provenBound(free)
}

// ensembleFamily generates instances that all leave the candidate loop at
// one exit, and at another (cutExit) when the target search is cut at its
// root, as one that spent its budget is: there the loop goes on to
// GreedyRandomized and the DFS as it did before it had a target search.
type ensembleFamily struct {
	name          string
	exit, cutExit string
	// senderBound: the exit is proven by a forced-sender load alone — the
	// receiver loads stay below every schedule.
	senderBound bool
	gen         func(rng *rand.Rand) []Task
}

var ensembleFamilies = []ensembleFamily{
	{
		// Everything lands on one receiver host with one duration: any order
		// is optimal and the host's sum is exact.
		name: "one receiver", exit: exitNaive, cutExit: exitNaive,
		gen: func(rng *rand.Rand) []Task {
			d := float64(1+rng.Intn(40)) / 7
			tasks := make([]Task, 2+rng.Intn(8))
			for i := range tasks {
				senders := []int{rng.Intn(3)}
				if rng.Intn(2) == 0 {
					senders = append(senders, rng.Intn(3))
				}
				tasks[i] = Task{ID: i, SenderHosts: senders, ReceiverHosts: []int{9}, Duration: d}
			}
			return tasks
		},
	},
	{
		// Two receiver hosts alternate and both senders are candidates
		// everywhere: Naive sends it all from host 0 and takes twice the
		// bound, LPT alternates the senders and meets it.
		name: "alternating receivers", exit: exitLPT, cutExit: exitLPT,
		gen: func(rng *rand.Rand) []Task {
			d := float64(1 + rng.Intn(9))
			tasks := make([]Task, 2*(2+rng.Intn(4)))
			for i := range tasks {
				tasks[i] = Task{ID: i, SenderHosts: []int{0, 1}, ReceiverHosts: []int{10 + i%2}, Duration: d}
			}
			return tasks
		},
	},
	{
		// The shape searches used to spend their whole node budget on: one
		// receiver host fed by two forced senders, 16 to 64 tasks, Naive
		// and LPT an ulp or so above the floor. The witness launches
		// everything in the order the floor's DP reached it by.
		name: "two forced senders, one receiver", exit: exitWit, cutExit: exitWit,
		gen: func(rng *rand.Rand) []Task { return twoSenderResidueInstance(rng, 16, 64) },
	},
	{
		// The four sender-receiver pairings of two forced senders and two
		// receivers, in an ID order that makes neighbours collide: Naive and
		// LPT (the same plan here) leave a gap, while batches of two
		// non-conflicting tasks fill both hosts all the time, and so does
		// the target search.
		name: "colliding pairs", exit: exitTarget, cutExit: exitGreedy,
		gen: func(rng *rand.Rand) []Task {
			d := float64(1+rng.Intn(40)) / 7
			tasks := make([]Task, 4*(2+rng.Intn(3)))
			for i := range tasks {
				tasks[i] = Task{ID: i, SenderHosts: []int{i / 2 % 2}, ReceiverHosts: []int{2 + i%2}, Duration: d}
			}
			return tasks
		},
	},
	{
		// One host must send everything, each task to a receiver of its own:
		// the send side serializes them and no receiver load says so.
		name: "one forced sender", exit: exitNaive, cutExit: exitNaive, senderBound: true,
		gen: func(rng *rand.Rand) []Task {
			d := float64(1+rng.Intn(40)) / 7
			tasks := make([]Task, 2+rng.Intn(8))
			for i := range tasks {
				senders := []int{4}
				if rng.Intn(2) == 0 {
					senders = []int{4, 4}
				}
				tasks[i] = Task{ID: i, SenderHosts: senders, ReceiverHosts: []int{10 + i}, Duration: d}
			}
			return tasks
		},
	},
	{
		// Three tasks of one duration that only host 2 can send — to 12, to
		// 11 and 10, to 11 and 12 — and a longer one (at most twice as long)
		// from host 1 to 10. Host 2's load is the floor, met only by running
		// its three back to back with the one to 10 first. Naive and LPT
		// launch the long task first and leave host 2 idle until 10 is
		// free. GreedyRandomized's widest first batch is the long task and
		// the one to 11 and 12; its next takes the wider of the other two,
		// the one to 10, which waits for the long task too. The DFS, and the
		// target search before it, find the order.
		name: "idle forced sender", exit: exitTarget, cutExit: exitDFS,
		gen: func(rng *rand.Rand) []Task {
			d := float64(2 + rng.Intn(20))
			long := d + float64(1+rng.Intn(int(d)))
			return []Task{
				{ID: 0, SenderHosts: []int{1}, ReceiverHosts: []int{10}, Duration: long},
				{ID: 1, SenderHosts: []int{2}, ReceiverHosts: []int{12}, Duration: d},
				{ID: 2, SenderHosts: []int{2, 2}, ReceiverHosts: []int{11, 10}, Duration: d},
				{ID: 3, SenderHosts: []int{2, 2}, ReceiverHosts: []int{11, 12}, Duration: d},
			}
		},
	},
	{
		// Three tasks from hosts of their own, each sharing a receiver with
		// each other one, plus independent fillers: the three run one after
		// another, while every load holds only two of them. No schedule meets
		// the floor.
		name: "receiver triangle", exit: exitNone, cutExit: exitNone,
		gen: func(rng *rand.Rand) []Task {
			tasks := []Task{
				{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{10, 11}},
				{ID: 1, SenderHosts: []int{1}, ReceiverHosts: []int{11, 12}},
				{ID: 2, SenderHosts: []int{2}, ReceiverHosts: []int{12, 10}},
			}
			for i := range tasks {
				tasks[i].Duration = float64(1+rng.Intn(97)) / 7
			}
			for i := rng.Intn(3); i > 0; i-- {
				tasks = append(tasks, Task{ID: len(tasks), SenderHosts: []int{3, 4}, ReceiverHosts: []int{20 + i}, Duration: 1})
			}
			return tasks
		},
	},
}

// unequalForcedSenderInstance has one host send everything, each task to a
// receiver of its own, with sevenths durations: the floor is the least chain
// of the send side's durations, which some launch orders miss by an ulp.
// Which candidate meets it, if any, depends on the instance.
func unequalForcedSenderInstance(rng *rand.Rand) []Task {
	tasks := make([]Task, 3+rng.Intn(5))
	for i := range tasks {
		tasks[i] = Task{ID: i, SenderHosts: []int{4}, ReceiverHosts: []int{10 + i}, Duration: 1 + float64(1+rng.Intn(97))/7}
	}
	return tasks
}

// twoSenderResidueInstance is the shape the witness was built for: one
// receiver host fed by two forced senders, minTasks to maxTasks tasks whose
// durations take two or three values 1+k/7 (two past 40 tasks, so the load
// stays under chainStates), drawn until neither the ID order (Naive) nor the
// longest-first order (LoadBalanceOnly) chains the receiver to the floor.
func twoSenderResidueInstance(rng *rand.Rand, minTasks, maxTasks int) []Task {
	for attempt := 0; attempt < 1000; attempt++ {
		n := minTasks + rng.Intn(maxTasks-minTasks+1)
		vals := make([]float64, 2+rng.Intn(2))
		if n > 40 {
			vals = vals[:2]
		}
		for k := range vals {
			vals[k] = 1 + float64(1+rng.Intn(97))/7
		}
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ID: i, SenderHosts: []int{rng.Intn(2)}, ReceiverHosts: []int{9}, Duration: vals[rng.Intn(len(vals))]}
		}
		pb := provenBound(tasks)
		naive, errN := Makespan(tasks, Naive(tasks))
		lpt, errL := Makespan(tasks, LoadBalanceOnly(tasks))
		if errN == nil && errL == nil && naive > pb && lpt > pb {
			return tasks
		}
	}
	panic("no two-sender instance leaves Naive and LPT off the floor in 1000 draws")
}

// reportExits are the exits Incumbent.Report names, by the exit a family is
// meant for: the candidate that met the floor.
var reportExits = map[string]Exit{
	exitNaive: ExitNaive, exitLPT: ExitLPT, exitWit: ExitWitness,
	exitTarget: ExitTarget, exitGreedy: ExitGreedy, exitDFS: ExitDFS,
}

// TestEnsembleFamiliesExitWhereIntended holds each family to its exit — and
// to its cut exit with the target search cut at its root — and the
// candidate loop to its laziness: nothing is built after the exit — the
// target search and the DFS are not called, and an exit before the trials
// leaves the rng where a fresh source starts — and a search that meets the
// floor returns it. The report names the exit and counts what ran.
func TestEnsembleFamiliesExitWhereIntended(t *testing.T) {
	const trials = 16
	reached := map[string]bool{}
	for _, fam := range ensembleFamilies {
		reached[fam.exit], reached[fam.cutExit] = true, true
	}
	for _, exit := range []string{exitNaive, exitLPT, exitWit, exitTarget, exitGreedy, exitDFS, exitNone} {
		if !reached[exit] {
			t.Errorf("no family leaves the candidate loop at %s", exit)
		}
	}
	for _, fam := range ensembleFamilies {
		for _, run := range []struct {
			targetBudget int
			exit         string
		}{{targetNodes, fam.exit}, {1, fam.cutExit}} {
			rng := rand.New(rand.NewSource(77))
			for trial := 0; trial < 12; trial++ {
				tasks := fam.gen(rng)
				seed := int64(trial)*31 + 5
				name := fmt.Sprintf("%s (target budget %d) trial %d", fam.name, run.targetBudget, trial)
				checkFamilyExit(t, name, tasks, fam.senderBound, run.targetBudget, run.exit, trials, seed)
			}
		}
	}
}

// checkFamilyExit runs one instance's candidate loop with the target search
// under targetBudget nodes and holds it to exit (see
// TestEnsembleFamiliesExitWhereIntended).
func checkFamilyExit(t *testing.T, name string, tasks []Task, senderBound bool, targetBudget int, exit string, trials int, seed int64) {
	t.Helper()
	if got := ensembleExit(t, tasks, trials, seed, targetBudget, 2000); got != exit {
		t.Fatalf("%s: candidate loop exits at %s, family is meant for %s\ntasks: %+v", name, got, exit, tasks)
	}
	if senderBound {
		if naive, rb := mustMakespan(t, tasks, Naive(tasks)), receiverOnlyBound(tasks); naive <= rb {
			t.Fatalf("%s: receiver loads alone (%v) already prove Naive (%v)", name, rb, naive)
		}
	}
	searches := 0
	dfs := func(tk []Task, lpt lptSeed) (Plan, int) { searches++; return dfsPruning(tk, 2000, nil, &lpt) }
	src := rand.New(rand.NewSource(seed))
	in := ClosedForm(tasks)
	closed := exit == exitNaive || exit == exitLPT || exit == exitWit
	if in.Proven() != closed {
		t.Fatalf("%s: ClosedForm proven = %v on an instance that exits at %s", name, in.Proven(), exit)
	}
	got := in.search(targetBudget, dfs, trials, src)
	if want := referenceEnsembleBudgets(tasks, targetBudget, 2000, trials, rand.New(rand.NewSource(seed))); !samePlan(got, want) {
		t.Fatalf("%s: ensemble diverged from reference\n got: %+v\nwant: %+v", name, got, want)
	}
	wantTargets, wantSearches := 1, 0
	if closed {
		wantTargets = 0
	}
	if exit == exitDFS || exit == exitNone {
		wantSearches = 1
	}
	if span := mustMakespan(t, tasks, got); (span <= provenBound(tasks)) != (exit != exitNone) {
		t.Fatalf("%s: the ensemble returned makespan %v against floor %v on an instance that exits at %s", name, span, provenBound(tasks), exit)
	}
	if searches != wantSearches {
		t.Fatalf("%s: DFS ran %d times on an instance that exits at %s", name, searches, exit)
	}
	if closed || exit == exitTarget {
		if next, fresh := src.Int63(), rand.New(rand.NewSource(seed)).Int63(); next != fresh {
			t.Fatalf("%s: rng was drawn from before an exit at %s", name, exit)
		}
	}
	r := in.Report()
	if r.Proven != (exit != exitNone) || exit != exitNone && r.Exit != reportExits[exit] {
		t.Fatalf("%s: report %+v on an instance that exits at %s", name, r, exit)
	}
	if (r.TargetNodes > 0) != (wantTargets > 0) || (r.DFSNodes > 0) != (wantSearches > 0) || (r.GreedyTrials > 0) != !(closed || exit == exitTarget) {
		t.Fatalf("%s: report %+v counts work that did not run, or not work that did, on an instance that exits at %s", name, r, exit)
	}
}

// rankEagerly is what the candidate loop replaced: the smallest makespan
// among candidates that were all built beforehand, ties to the earlier,
// invalid ones skipped.
func rankEagerly(tasks []Task, candidates []Plan) Plan {
	best := candidates[0]
	bestSpan := math.Inf(1)
	for _, c := range candidates {
		span, err := Makespan(tasks, c)
		if err != nil {
			continue
		}
		if span < bestSpan {
			best, bestSpan = c, span
		}
	}
	return best
}

// TestGreedyEnsembleMatchesEagerRanking: the search-free ensemble goes
// through the same candidate loop and must return what ranking all of its
// candidates would: ClosedForm's (the witness in its place after LPT), then
// GreedyLoad.
func TestGreedyEnsembleMatchesEagerRanking(t *testing.T) {
	for _, fam := range ensembleFamilies {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 12; trial++ {
			tasks := fam.gen(rng)
			want := rankEagerly(tasks, append(closedFormCandidates(tasks), GreedyLoad(tasks)))
			if got := GreedyEnsemble(tasks); !samePlan(got, want) {
				t.Fatalf("%s trial %d: GreedyEnsemble diverged from the eager ranking\n got: %+v\nwant: %+v", fam.name, trial, got, want)
			}
		}
	}
}

// TestEnsembleKeepsEarlierCandidateOnTie pins the adoption rule the exit
// rests on. Three tasks with integer durations, each sharing a receiver with
// both others: every order runs them one after another and ends at exactly
// 6, so all candidates tie, and no load holds more than two of them, so the
// floor (5) proves none — the loop runs to its end and must still return its
// first candidate.
func TestEnsembleKeepsEarlierCandidateOnTie(t *testing.T) {
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{5, 6}, Duration: 1},
		{ID: 1, SenderHosts: []int{1}, ReceiverHosts: []int{6, 7}, Duration: 3},
		{ID: 2, SenderHosts: []int{2}, ReceiverHosts: []int{7, 5}, Duration: 2},
	}
	naive, lpt := Naive(tasks), LoadBalanceOnly(tasks)
	if samePlan(naive, lpt) || mustMakespan(t, tasks, naive) != mustMakespan(t, tasks, lpt) {
		t.Fatal("instance no longer has Naive and LPT tie as different plans")
	}
	if exit := ensembleExit(t, tasks, 4, 1, targetNodes, 1000); exit != exitNone {
		t.Fatalf("candidate loop exits at %s; the tie must be decided by the adoption rule, not the exit", exit)
	}
	if got := EnsembleNodesStop(tasks, 1000, 4, rand.New(rand.NewSource(1)), nil); !samePlan(got, naive) {
		t.Fatalf("EnsembleNodesStop tie broke toward a later candidate: %+v", got)
	}
	if got := GreedyEnsemble(tasks); !samePlan(got, naive) {
		t.Fatalf("GreedyEnsemble tie broke toward a later candidate: %+v", got)
	}
}

// TestDFSRestoresDuplicateReceiver: a task that lists a receiver host twice
// saved the host's free time twice — the pre-commit value, then the value it
// had just written. Restoring in save order left the second in place, and
// every span the search computed afterwards was inflated; on this instance it
// then missed the optimum by 4.
func TestDFSRestoresDuplicateReceiver(t *testing.T) {
	tasks := []Task{
		{ID: 0, SenderHosts: []int{1, 0}, ReceiverHosts: []int{5, 7}, Duration: 4},
		{ID: 1, SenderHosts: []int{1, 0}, ReceiverHosts: []int{6, 7}, Duration: 5},
		{ID: 2, SenderHosts: []int{1}, ReceiverHosts: []int{5, 5, 6}, Duration: 5},
		{ID: 3, SenderHosts: []int{1}, ReceiverHosts: []int{5}, Duration: 4},
	}
	want := bruteForceOptimal(t, tasks)
	for name, p := range map[string]Plan{
		"DFSPruningNodesStop": DFSPruningNodesStop(tasks, 1<<20, nil),
		"referenceDFSNodes":   referenceDFSNodes(tasks, 1<<20),
		"EnsembleNodesStop":   EnsembleNodesStop(tasks, 1<<20, 4, rand.New(rand.NewSource(1)), nil),
	} {
		if got := mustMakespan(t, tasks, p); got != want {
			t.Errorf("%s: makespan %v, brute-force optimum %v", name, got, want)
		}
	}
}

// TestDFSFromEnsembleSeedMatchesOwnSeed: the search started from the LPT
// plan, makespan and bound its caller already holds is the search that
// computes them itself — same plan at every node budget, so the same visit
// order.
func TestDFSFromEnsembleSeedMatchesOwnSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		tasks := hardDFSInstance(rng)
		seed := lptSeed{plan: LoadBalanceOnly(tasks), bound: provenBound(tasks)}
		seed.span, seed.err = Makespan(tasks, seed.plan)
		for _, budget := range []int{1, 13, 500, 20000} {
			got, _ := dfsPruning(tasks, budget, nil, &seed)
			if want, _ := dfsPruning(tasks, budget, nil, nil); !samePlan(got, want) {
				t.Fatalf("trial %d budget %d: seeded search returned %+v, unseeded %+v", trial, budget, got, want)
			}
		}
	}
}
