package schedule

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func samePlan(a, b Plan) bool {
	return reflect.DeepEqual(a.Order, b.Order) && reflect.DeepEqual(a.Sender, b.Sender)
}

// countingStop returns a stop predicate that fires on every poll and the
// number of times it was polled.
func countingStop() (stop func() bool, polls *int) {
	polls = new(int)
	return func() bool { *polls++; return true }, polls
}

// TestDFSOneUlpBelowLowerBound pins the case that rules out LowerBound as
// the search's stopping rule: on the seed-99 trial-10 hardDFSInstance the
// reference adopts a schedule whose receiver chain sums one ulp under
// LowerBound, after having held one that meets it. A search that stopped on
// LowerBound would return the earlier plan.
func TestDFSOneUlpBelowLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var tasks []Task
	for trial := 0; trial <= 10; trial++ {
		tasks = hardDFSInstance(rng)
	}
	const budget = StopStride - 1
	want := referenceDFSNodes(tasks, budget)
	span := mustMakespan(t, tasks, want)
	if lb := LowerBound(tasks); !(span < lb) {
		t.Fatalf("instance no longer shows the case: reference makespan %v, LowerBound %v", span, lb)
	}
	if pb := provenBound(tasks); pb > span {
		t.Fatalf("provenBound %v exceeds an achieved makespan %v", pb, span)
	}
	if got := DFSPruningNodesStop(tasks, budget, nil); !samePlan(got, want) {
		t.Fatalf("plan diverged from reference\n got: %+v\nwant: %+v", got, want)
	}
}

// seventhsInstance generates an instance small enough to enumerate whose
// durations are sevenths (inexact in binary, so launch order changes the
// rounding of a host's sum) and whose tasks may list a receiver host
// twice. About half the instances draw from two durations only, so hosts
// with bit-equal durations — the exact branch of the bound — occur too.
func seventhsInstance(rng *rand.Rand) []Task {
	hosts := 2 + rng.Intn(2)
	durs := []float64{float64(1+rng.Intn(40)) / 7, float64(1+rng.Intn(40)) / 7}
	tasks := make([]Task, 2+rng.Intn(5))
	few := rng.Intn(2) == 0
	for i := range tasks {
		d := float64(1+rng.Intn(97)) / 7
		if few {
			d = durs[rng.Intn(2)]
		}
		senders := make([]int, 1+rng.Intn(2))
		for j := range senders {
			senders[j] = rng.Intn(hosts)
		}
		receivers := make([]int, 1+rng.Intn(3))
		for j := range receivers {
			receivers[j] = hosts + rng.Intn(hosts)
		}
		tasks[i] = Task{ID: i, SenderHosts: senders, ReceiverHosts: receivers, Duration: d}
	}
	return tasks
}

// forcedSenderInstance generates an enumerable instance whose send sides are
// the bottleneck: most tasks can be sent from one host only (listed once or
// twice), a few have a choice, and receivers are spread thin. Durations are
// one value (the exact branch of the bound) or sevenths.
func forcedSenderInstance(rng *rand.Rand) []Task {
	uniform := rng.Intn(2) == 0
	d := float64(1+rng.Intn(40)) / 7
	tasks := make([]Task, 2+rng.Intn(5))
	for i := range tasks {
		if !uniform {
			d = float64(1+rng.Intn(97)) / 7
		}
		s := rng.Intn(2)
		senders := []int{s}
		switch rng.Intn(5) {
		case 0:
			senders = []int{s, s}
		case 1:
			senders = []int{s, 1 - s}
		}
		tasks[i] = Task{ID: i, SenderHosts: senders, ReceiverHosts: []int{10 + rng.Intn(6)}, Duration: d}
	}
	return tasks
}

// TestProvenBoundBelowEverySchedule is the soundness property the early
// exits rest on: provenBound never exceeds the makespan of any schedule,
// evaluated in the same floating-point arithmetic. It also holds the bound
// to within rounding of LowerBound, so it cannot pass by being useless, and
// checks that both of its branches and both kinds of serial load — receiver
// hosts and forced senders — decide the bound often enough to be covered.
func TestProvenBoundBelowEverySchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	exact, bySenderExact, bySenderShrunk := 0, 0, 0
	for trial := 0; trial < 240; trial++ {
		tasks := seventhsInstance(rng)
		if trial%2 == 1 {
			tasks = forcedSenderInstance(rng)
		}
		pb, lb := provenBound(tasks), LowerBound(tasks)
		if pb > lb || pb < lb*(1-1e-12) {
			t.Fatalf("trial %d: provenBound %v not within rounding below LowerBound %v", trial, pb, lb)
		}
		if pb == lb {
			exact++
		}
		if pb > receiverOnlyBound(tasks) {
			if pb == lb {
				bySenderExact++
			} else {
				bySenderShrunk++
			}
		}
		forEachSchedule(t, tasks, func(span float64) {
			if span < pb {
				t.Fatalf("trial %d: a schedule evaluates to %v, below provenBound %v\ntasks: %+v", trial, span, pb, tasks)
			}
		})
	}
	if exact < 20 {
		t.Fatalf("only %d of 240 instances took the exact branch of the bound", exact)
	}
	if bySenderExact < 10 || bySenderShrunk < 10 {
		t.Fatalf("a forced-sender load decided the bound on %d exact and %d shrunk instances; want 10 of each", bySenderExact, bySenderShrunk)
	}
}

// TestForcedSenderChainSumsBelowLowerBound is the send-side twin of
// TestDFSOneUlpBelowLowerBound: three tasks one host must send, to three
// different receivers, whose durations sum an ulp lower in one launch order
// than in task order. Only the shrink keeps provenBound under that schedule.
func TestForcedSenderChainSumsBelowLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		tasks := make([]Task, 3)
		for i := range tasks {
			tasks[i] = Task{ID: i, SenderHosts: []int{0}, ReceiverHosts: []int{10 + i}, Duration: float64(1+rng.Intn(97)) / 7}
		}
		lb, lowest := LowerBound(tasks), math.Inf(1)
		forEachSchedule(t, tasks, func(span float64) { lowest = math.Min(lowest, span) })
		if lowest < lb {
			if pb := provenBound(tasks); pb > lowest {
				t.Fatalf("provenBound %v exceeds a schedule's makespan %v (LowerBound %v)\ntasks: %+v", pb, lowest, lb, tasks)
			}
			return
		}
	}
	t.Fatal("no instance in 2000 had a launch order summing below LowerBound; the generator no longer shows the case")
}

// TestProvenBoundRejectsUnsoundInputs: durations the soundness argument
// does not cover must not produce a bound a real makespan could meet,
// whether they meet on a receiver host or only on a forced sender.
func TestProvenBoundRejectsUnsoundInputs(t *testing.T) {
	for name, d := range map[string]float64{"negative": -1, "NaN": math.NaN(), "+Inf": math.Inf(1), "overflow": math.MaxFloat64} {
		for where, receivers := range map[string][3]int{"shared receiver": {1, 1, 1}, "forced sender only": {1, 2, 3}} {
			tasks := []Task{
				{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{receivers[0]}, Duration: 2},
				{ID: 1, SenderHosts: []int{0}, ReceiverHosts: []int{receivers[1]}, Duration: d},
				{ID: 2, SenderHosts: []int{0}, ReceiverHosts: []int{receivers[2]}, Duration: d},
			}
			if pb := provenBound(tasks); pb != 0 {
				t.Errorf("%s duration, %s: provenBound = %v, want 0", name, where, pb)
			}
		}
	}
}

// TestLowerBoundCountsDuplicateReceiverOnce: a task listing a host twice
// loads it once, as with the per-task set this replaced.
func TestLowerBoundCountsDuplicateReceiverOnce(t *testing.T) {
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{5, 5, 6}, Duration: 3},
		{ID: 1, SenderHosts: []int{1}, ReceiverHosts: []int{6, 5, 6}, Duration: 4},
	}
	if lb := LowerBound(tasks); lb != 7 {
		t.Fatalf("LowerBound = %v, want 7", lb)
	}
}

// TestDFSReturnsProvenSeedWithoutSearching: where the LPT seed meets the
// bound, the search returns exactly what the reference returns at
// any budget, and visits no node — so it can never reach a StopStride
// boundary and poll stop, not even a stop that would fire at once.
func TestDFSReturnsProvenSeedWithoutSearching(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	proven := 0
	for trial := 0; trial < 300; trial++ {
		tasks := randomDFSInstance(rng)
		if trial%3 == 0 {
			tasks = hardDFSInstance(rng)
		}
		lpt := LoadBalanceOnly(tasks)
		if mustMakespan(t, tasks, lpt) > provenBound(tasks) {
			continue
		}
		proven++
		for _, budget := range []int{1, 50, 2000, 50000} {
			want := referenceDFSNodes(tasks, budget)
			stop, polls := countingStop()
			if got := DFSPruningNodesStop(tasks, budget, stop); !samePlan(got, want) {
				t.Fatalf("trial %d budget %d: DFSPruningNodesStop diverged from reference", trial, budget)
			}
			if *polls != 0 {
				t.Fatalf("trial %d budget %d: stop polled %d times by a search with a proven seed", trial, budget, *polls)
			}
		}
	}
	if proven < 30 {
		t.Fatalf("only %d of 300 instances had an LPT seed meeting the bound", proven)
	}
}

// midSearchInstance is built so the optimum is found a few nodes into the
// search and the tree left over is large. Tasks A and B (5 each) share
// receiver 30, so 10 is the bound; LPT stacks C and D behind them for 13.5;
// the schedule that runs C beside A and D beside B meets 10. Four
// independent fillers with distinct durations come first in task order, so
// the search fixes them as a prefix, finds 10 among the orders of the last
// four tasks, and — unless it stops — goes on to permute the fillers.
// aDuration is A's; anything but 5 makes receiver 30's durations unequal.
func midSearchInstance(aDuration float64) []Task {
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, Task{ID: i, SenderHosts: []int{10 + i}, ReceiverHosts: []int{20 + i}, Duration: 1 + float64(i)/4})
	}
	return append(tasks,
		Task{ID: 4, SenderHosts: []int{0}, ReceiverHosts: []int{30}, Duration: aDuration},
		Task{ID: 5, SenderHosts: []int{1}, ReceiverHosts: []int{30}, Duration: 5},
		Task{ID: 6, SenderHosts: []int{0, 1}, ReceiverHosts: []int{31}, Duration: 4},
		Task{ID: 7, SenderHosts: []int{0, 1}, ReceiverHosts: []int{32}, Duration: 3.5},
	)
}

// TestDFSStopsWhereOptimumIsAdopted: a search that reaches the bound
// mid-way stops at that node and still returns the reference's plan at
// every budget, the one just short of the adopting node included.
func TestDFSStopsWhereOptimumIsAdopted(t *testing.T) {
	tasks := midSearchInstance(5)
	bound := provenBound(tasks)
	if bound != 10 {
		t.Fatalf("provenBound = %v, want 10", bound)
	}
	if lpt := mustMakespan(t, tasks, LoadBalanceOnly(tasks)); lpt <= bound {
		t.Fatalf("LPT seed %v already meets the bound; the instance must make the search work for it", lpt)
	}
	// The node at which the reference adopts the optimum: the smallest
	// budget that returns it.
	adopt := 1
	for mustMakespan(t, tasks, referenceDFSNodes(tasks, adopt)) != bound {
		adopt++
		if adopt > StopStride {
			t.Fatalf("reference has not reached %v within %d nodes", bound, StopStride)
		}
	}
	if adopt < 2 {
		t.Fatalf("optimum adopted at node %d, not mid-search", adopt)
	}
	for _, budget := range []int{1, adopt - 1, adopt, adopt + 1, 50000, 1 << 30} {
		want := referenceDFSNodes(tasks, budget)
		stop, polls := countingStop()
		if got := DFSPruningNodesStop(tasks, budget, stop); !samePlan(got, want) {
			t.Fatalf("budget %d (optimum adopted at node %d): plan diverged from reference\n got: %+v\nwant: %+v", budget, adopt, got, want)
		}
		if *polls != 0 {
			t.Fatalf("budget %d: stop polled %d times; the search should have ended at node %d", budget, *polls, adopt)
		}
	}
	// It is the proof that ends the search, not the size of the tree: with
	// A an ulp longer receiver 30's sum is no longer exact, nothing is
	// proven, and the same search runs past a StopStride boundary.
	polls := 0
	DFSPruningNodesStop(midSearchInstance(math.Nextafter(5, 6)), 1<<30, func() bool { polls++; return false })
	if polls == 0 {
		t.Fatal("the unproven variant never reached a StopStride boundary; the instance is too small to show the exit")
	}
}
