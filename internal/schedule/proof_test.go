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

// loadKey names a serial load: a host's receive side, or its send side.
type loadKey struct {
	host int
	send bool
}

// serialLoads lists the durations of every serial load in task order: the
// receive side of each receiver host (a task listing it twice counts once)
// and the send side of each host some task can be sent from only.
func serialLoads(tasks []Task) (keys []loadKey, durations map[loadKey][]float64) {
	durations = map[loadKey][]float64{}
	add := func(k loadKey, d float64) {
		if _, ok := durations[k]; !ok {
			keys = append(keys, k)
		}
		durations[k] = append(durations[k], d)
	}
	for _, tk := range tasks {
		if s, ok := forcedSender(&tk); ok {
			add(loadKey{s, true}, tk.Duration)
		}
		seen := map[int]bool{}
		for _, r := range tk.ReceiverHosts {
			if !seen[r] {
				seen[r] = true
				add(loadKey{r, false}, tk.Duration)
			}
		}
	}
	return keys, durations
}

func uniform(durations []float64) bool {
	for _, d := range durations {
		if d != durations[0] {
			return false
		}
	}
	return true
}

// floorReference computes the floor the long way: each load's least chain by
// trying every launch order of its durations, or, with shrink, the floor as
// it was before the least chain was worked out — a load of bit-equal
// durations at its sum, any other at its sum times 1-k*2^-51. Durations
// provenBound refuses make both 0.
func floorReference(tasks []Task, shrink bool) float64 {
	floor := 0.0
	for _, tk := range tasks {
		if !(tk.Duration >= 0) {
			return 0
		}
		floor = max(floor, tk.Duration)
	}
	keys, durations := serialLoads(tasks)
	for _, k := range keys {
		ds := durations[k]
		var b float64
		if !shrink {
			b = leastChainByEnumeration(ds)
		} else {
			for _, d := range ds {
				b += d
			}
			if !uniform(ds) {
				b *= 1 - float64(len(ds))*0x1p-51
			}
		}
		floor = max(floor, b)
	}
	if math.IsInf(floor, 1) {
		return 0
	}
	return floor
}

// leastChainByEnumeration returns the least fl(fl(d1+d2)+d3)... over every
// order of the durations, by trying them all up to eight durations. Past
// that it takes the least chain over each subset of them, by the monotonicity
// of fl(x+d) in x that leastChain rests on too, but over subsets of
// positions rather than counts of values.
func leastChainByEnumeration(ds []float64) float64 {
	if len(ds) > 8 {
		chain := make([]float64, 1<<len(ds))
		for set := 1; set < len(chain); set++ {
			chain[set] = math.Inf(1)
			for i, d := range ds {
				if set&(1<<i) != 0 {
					chain[set] = min(chain[set], chain[set&^(1<<i)]+d)
				}
			}
		}
		return chain[len(chain)-1]
	}
	least := math.Inf(1)
	used := make([]bool, len(ds))
	var walk func(depth int, chain float64)
	walk = func(depth int, chain float64) {
		if depth == len(ds) {
			least = min(least, chain)
			return
		}
		for i, d := range ds {
			if !used[i] {
				used[i] = true
				walk(depth+1, chain+d)
				used[i] = false
			}
		}
	}
	walk(0, 0)
	return least
}

// checkFloor holds provenBound, on an instance small enough to enumerate, to
// what it promises: bit-equal to floorReference; at or below every
// schedule's makespan; bit-equal to the shrunk floor when every load's
// durations are, and at or above it otherwise; and where ClosedForm calls
// its incumbent proven, that incumbent is a brute-force optimum. It holds
// GreedyEnsemble to the same oracle: no worse than ClosedForm's incumbent,
// and a brute-force optimum wherever it meets the floor. It returns the
// floor, the shrunk floor and whether ClosedForm proved its incumbent.
func checkFloor(t *testing.T, tasks []Task) (pb, shrunk float64, proven bool) {
	t.Helper()
	pb, shrunk = provenBound(tasks), floorReference(tasks, true)
	if want := floorReference(tasks, false); math.Float64bits(pb) != math.Float64bits(want) {
		t.Fatalf("provenBound %v, least chains by enumeration %v\ntasks: %+v", pb, want, tasks)
	}
	keys, durations := serialLoads(tasks)
	allUniform := true
	for _, k := range keys {
		allUniform = allUniform && uniform(durations[k])
	}
	if allUniform && math.Float64bits(pb) != math.Float64bits(shrunk) || pb < shrunk {
		t.Fatalf("provenBound %v against the shrunk floor %v (every load uniform: %v)\ntasks: %+v", pb, shrunk, allUniform, tasks)
	}
	opt := math.Inf(1)
	forEachSchedule(t, tasks, func(span float64) {
		if span < pb {
			t.Fatalf("a schedule evaluates to %v, below provenBound %v\ntasks: %+v", span, pb, tasks)
		}
		opt = min(opt, span)
	})
	in := ClosedForm(tasks)
	if in.Proven() {
		if span := mustMakespan(t, tasks, in.best); span != opt {
			t.Fatalf("ClosedForm proved makespan %v, brute-force optimum %v\ntasks: %+v", span, opt, tasks)
		}
	}
	// The degraded scheduler only adds GreedyLoad to ClosedForm's
	// incumbent: never worse than it, and optimal once it meets the floor.
	g := mustMakespan(t, tasks, GreedyEnsemble(tasks))
	if g > in.span {
		t.Fatalf("GreedyEnsemble makespan %v, worse than ClosedForm's incumbent %v\ntasks: %+v", g, in.span, tasks)
	}
	if g <= pb && g != opt {
		t.Fatalf("GreedyEnsemble meets provenBound %v at %v, brute-force optimum %v\ntasks: %+v", pb, g, opt, tasks)
	}
	return pb, shrunk, in.Proven()
}

// TestProvenBoundBelowEverySchedule is the soundness property the early
// exits rest on, checked by checkFloor: provenBound is each load's least
// chain, never exceeds the makespan of any schedule evaluated in the same
// floating-point arithmetic, and proves only optima. It also holds the bound
// to within rounding of LowerBound, so it cannot pass by being useless, and
// checks that every kind of load decides it often enough to be covered —
// receiver hosts and forced senders, of bit-equal durations and of others —
// and that the least chain both sits below the task-order sum and lifts the
// floor above the shrunk sum, proving incumbents the shrunk floor did not.
func TestProvenBoundBelowEverySchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	type kind struct{ sender, uniform bool }
	decided := map[kind]int{}
	belowSum, lifted, newlyProven := 0, 0, 0
	for trial := 0; trial < 240; trial++ {
		tasks := seventhsInstance(rng)
		if trial%2 == 1 {
			tasks = forcedSenderInstance(rng)
		}
		pb, shrunk, proven := checkFloor(t, tasks)
		lb := LowerBound(tasks)
		if pb > lb || pb < lb*(1-1e-12) {
			t.Fatalf("trial %d: provenBound %v not within rounding below LowerBound %v", trial, pb, lb)
		}
		// The deciding load: a send side when the receiver loads alone stay
		// below the floor, of bit-equal durations when such a load of that
		// side reaches it.
		k := kind{sender: pb > receiverOnlyBound(tasks)}
		keys, durations := serialLoads(tasks)
		for _, key := range keys {
			ds := durations[key]
			if key.send == k.sender && uniform(ds) && leastChainByEnumeration(ds) == pb {
				k.uniform = true
			}
		}
		decided[k]++
		if pb < lb {
			belowSum++
		}
		if pb > shrunk {
			lifted++
			if proven { // at pb, so above what the shrunk floor proves
				newlyProven++
			}
		}
	}
	for _, k := range []kind{{false, true}, {false, false}, {true, true}, {true, false}} {
		if decided[k] < 10 {
			t.Errorf("a load (send side %v, bit-equal durations %v) decided the floor on %d of 240 instances; want 10", k.sender, k.uniform, decided[k])
		}
	}
	if belowSum < 10 || lifted < 40 || newlyProven < 20 {
		t.Errorf("the floor sat below the task-order sum on %d instances and above the shrunk sum on %d, proving %d incumbents the shrunk sum did not; want 10, 40, 20",
			belowSum, lifted, newlyProven)
	}
}

// TestProvenBoundCapsTheChain: a load with more than chainStates count
// vectors — thirteen distinct durations make 2^13 — counts as its shrunk
// sum, bit for bit, and one with exactly chainStates is worked out.
func TestProvenBoundCapsTheChain(t *testing.T) {
	load := func(n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ID: i, SenderHosts: []int{i % 3, 3}, ReceiverHosts: []int{9}, Duration: 1 + float64(i+1)/7}
		}
		return tasks
	}
	capped := load(13)
	if pb, shrunk := provenBound(capped), floorReference(capped, true); math.Float64bits(pb) != math.Float64bits(shrunk) {
		t.Fatalf("13 distinct durations: provenBound %v, shrunk floor %v", pb, shrunk)
	}
	worked := load(12)
	if pb, want := provenBound(worked), floorReference(worked, false); math.Float64bits(pb) != math.Float64bits(want) {
		t.Fatalf("12 distinct durations: provenBound %v, least chain %v", pb, want)
	}
}

// TestForcedSenderChainSumsBelowLowerBound is the send-side twin of
// TestDFSOneUlpBelowLowerBound: three tasks one host must send, to three
// different receivers, whose durations sum an ulp lower in one launch order
// than in task order. Only taking the least chain over launch orders keeps
// provenBound under that schedule.
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
// four tasks, and — unless it stops — goes on to permute the fillers. With
// triangle, A, B and C each share a receiver with both others: they run one
// after another, 14 at best, while no load holds more than two of them.
func midSearchInstance(triangle bool) []Task {
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, Task{ID: i, SenderHosts: []int{10 + i}, ReceiverHosts: []int{20 + i}, Duration: 1 + float64(i)/4})
	}
	tasks = append(tasks,
		Task{ID: 4, SenderHosts: []int{0}, ReceiverHosts: []int{30}, Duration: 5},
		Task{ID: 5, SenderHosts: []int{1}, ReceiverHosts: []int{30}, Duration: 5},
		Task{ID: 6, SenderHosts: []int{0, 1}, ReceiverHosts: []int{31}, Duration: 4},
		Task{ID: 7, SenderHosts: []int{0, 1}, ReceiverHosts: []int{32}, Duration: 3.5},
	)
	if triangle {
		tasks[4].ReceiverHosts = []int{30, 32}
		tasks[5].ReceiverHosts = []int{30, 31}
		tasks[6].ReceiverHosts = []int{31, 32}
	}
	return tasks
}

// TestDFSStopsWhereOptimumIsAdopted: a search that reaches the bound
// mid-way stops at that node and still returns the reference's plan at
// every budget, the one just short of the adopting node included.
func TestDFSStopsWhereOptimumIsAdopted(t *testing.T) {
	tasks := midSearchInstance(false)
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
	// It is the proof that ends the search, not the size of the tree: in the
	// triangle variant the optimum sits above the floor, nothing is proven,
	// and the same search runs past a StopStride boundary to the optimum.
	triangle := midSearchInstance(true)
	polls := 0
	got := DFSPruningNodesStop(triangle, 1<<30, func() bool { polls++; return false })
	if span, pb := mustMakespan(t, triangle, got), provenBound(triangle); span != 14 || !(pb < span) {
		t.Fatalf("triangle variant: search makespan %v, floor %v; want 14 above the floor", span, pb)
	}
	if polls == 0 {
		t.Fatal("the unproven variant never reached a StopStride boundary; the instance is too small to show the exit")
	}
}
