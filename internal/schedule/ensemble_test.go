package schedule

import (
	"math"
	"math/rand"
	"testing"
)

// Where the candidate loop ends: the first candidate whose offer leaves the
// incumbent at provenBound — the DFS proving its own incumbent included — or
// exitNone when even the search ends above it.
const (
	exitNaive  = "Naive"
	exitLPT    = "LoadBalanceOnly"
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

// ensembleExit works out the exit from the definitions, building every
// candidate eagerly, the DFS as the reference search under dfsNodes.
func ensembleExit(t *testing.T, tasks []Task, trials int, seed int64, dfsNodes int) string {
	t.Helper()
	pb := provenBound(tasks)
	switch {
	case mustMakespan(t, tasks, Naive(tasks)) <= pb:
		return exitNaive
	case mustMakespan(t, tasks, LoadBalanceOnly(tasks)) <= pb:
		return exitLPT
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
// one exit.
type ensembleFamily struct {
	name string
	exit string
	// senderBound: the exit is proven by a forced-sender load alone — the
	// receiver loads stay below every schedule.
	senderBound bool
	gen         func(rng *rand.Rand) []Task
}

var ensembleFamilies = []ensembleFamily{
	{
		// Everything lands on one receiver host with one duration: any order
		// is optimal and the host's sum is exact.
		name: "one receiver", exit: exitNaive,
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
		name: "alternating receivers", exit: exitLPT,
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
		// The four sender-receiver pairings of two forced senders and two
		// receivers, in an ID order that makes neighbours collide: Naive and
		// LPT (the same plan here) leave a gap, while batches of two
		// non-conflicting tasks fill both hosts all the time.
		name: "colliding pairs", exit: exitGreedy,
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
		name: "one forced sender", exit: exitNaive, senderBound: true,
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
		// the one to 10, which waits for the long task too.
		name: "idle forced sender", exit: exitDFS,
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
		name: "receiver triangle", exit: exitNone,
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

// TestEnsembleFamiliesExitWhereIntended holds each family to its exit and
// the candidate loop to its laziness: nothing is built after the exit — the
// DFS is not called, and an exit before the trials leaves the rng where a
// fresh source starts — and a search that meets the floor returns it.
func TestEnsembleFamiliesExitWhereIntended(t *testing.T) {
	const trials = 16
	reached := map[string]bool{}
	for _, fam := range ensembleFamilies {
		reached[fam.exit] = true
	}
	for _, exit := range []string{exitNaive, exitLPT, exitGreedy, exitDFS, exitNone} {
		if !reached[exit] {
			t.Errorf("no family leaves the candidate loop at %s", exit)
		}
	}
	for _, fam := range ensembleFamilies {
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 12; trial++ {
			tasks := fam.gen(rng)
			seed := int64(trial)*31 + 5
			if got := ensembleExit(t, tasks, trials, seed, 2000); got != fam.exit {
				t.Fatalf("%s trial %d: candidate loop exits at %s, family is meant for %s\ntasks: %+v", fam.name, trial, got, fam.exit, tasks)
			}
			if fam.senderBound {
				if naive, rb := mustMakespan(t, tasks, Naive(tasks)), receiverOnlyBound(tasks); naive <= rb {
					t.Fatalf("%s trial %d: receiver loads alone (%v) already prove Naive (%v)", fam.name, trial, rb, naive)
				}
			}
			searches := 0
			dfs := func(tk []Task, lpt lptSeed) Plan { searches++; return dfsPruning(tk, 2000, nil, &lpt) }
			src := rand.New(rand.NewSource(seed))
			in := ClosedForm(tasks)
			if proven := fam.exit == exitNaive || fam.exit == exitLPT; in.Proven() != proven {
				t.Fatalf("%s trial %d: ClosedForm proven = %v on an instance that exits at %s", fam.name, trial, in.Proven(), fam.exit)
			}
			got := in.search(dfs, trials, src)
			if want := referenceEnsembleNodes(tasks, 2000, trials, rand.New(rand.NewSource(seed))); !samePlan(got, want) {
				t.Fatalf("%s trial %d: ensemble diverged from reference\n got: %+v\nwant: %+v", fam.name, trial, got, want)
			}
			wantSearches := 0
			if fam.exit == exitDFS || fam.exit == exitNone {
				wantSearches = 1
			}
			if span := mustMakespan(t, tasks, got); (span <= provenBound(tasks)) != (fam.exit != exitNone) {
				t.Fatalf("%s trial %d: the ensemble returned makespan %v against floor %v on an instance that exits at %s", fam.name, trial, span, provenBound(tasks), fam.exit)
			}
			if searches != wantSearches {
				t.Fatalf("%s trial %d: DFS ran %d times on an instance that exits at %s", fam.name, trial, searches, fam.exit)
			}
			if fam.exit == exitNaive || fam.exit == exitLPT {
				if next, fresh := src.Int63(), rand.New(rand.NewSource(seed)).Int63(); next != fresh {
					t.Fatalf("%s trial %d: rng was drawn from before an exit at %s", fam.name, trial, fam.exit)
				}
			}
		}
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
// through the same candidate loop and must return what ranking all three of
// its candidates would.
func TestGreedyEnsembleMatchesEagerRanking(t *testing.T) {
	for _, fam := range ensembleFamilies {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 12; trial++ {
			tasks := fam.gen(rng)
			want := rankEagerly(tasks, []Plan{Naive(tasks), LoadBalanceOnly(tasks), GreedyLoad(tasks)})
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
	if exit := ensembleExit(t, tasks, 4, 1, 1000); exit != exitNone {
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
			if got, want := dfsPruning(tasks, budget, nil, &seed), dfsPruning(tasks, budget, nil, nil); !samePlan(got, want) {
				t.Fatalf("trial %d budget %d: seeded search returned %+v, unseeded %+v", trial, budget, got, want)
			}
		}
	}
}
