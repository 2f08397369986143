package schedule

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// ampleNodes is a budget no target search on the test instances spends: the
// searches below end by what they find, not by their budget.
const ampleNodes = 1 << 22

// checkTarget holds the target search on one instance to the plain
// recursion (referenceTargetSearch), both under an ample budget: with and
// without the dominance table it finds a schedule exactly when the
// reference does, and the same one — the first at the floor in the order
// all three visit schedules — and that schedule is valid and at or under
// the floor. It returns whether there was one.
func checkTarget(t *testing.T, tasks []Task) bool {
	t.Helper()
	pb := provenBound(tasks)
	want, wantFound, exhausted := referenceTargetSearch(tasks, pb, ampleNodes)
	if exhausted {
		t.Fatalf("the reference target search spent %d nodes: the instance is too large to check\ntasks: %+v", ampleNodes, tasks)
	}
	for _, table := range []bool{true, false} {
		got, found, nodes := targetSearch(tasks, pb, ampleNodes, table)
		if nodes > ampleNodes {
			t.Fatalf("table %v: the target search spent its budget\ntasks: %+v", table, tasks)
		}
		if found != wantFound || found && !samePlan(got, want) {
			t.Fatalf("table %v: target search found %v %+v, reference %v %+v\ntasks: %+v", table, found, got, wantFound, want, tasks)
		}
		if found {
			if err := Validate(tasks, got); err != nil {
				t.Fatalf("table %v: %v\ntasks: %+v", table, err, tasks)
			}
			if span := mustMakespan(t, tasks, got); span > pb {
				t.Fatalf("table %v: the target search returned makespan %v above the floor %v\ntasks: %+v", table, span, pb, tasks)
			}
		}
	}
	return wantFound
}

// TestTargetMatchesReference runs checkTarget over the generators the
// ensemble is tested on, and requires both outcomes — a schedule at the
// floor, and none — to come up. The family of two forced senders and one
// receiver is left out: its 16 to 64 tasks take the plain recursion
// minutes, and the witness proves them before any search.
func TestTargetMatchesReference(t *testing.T) {
	gens := []func(*rand.Rand) []Task{randomDFSInstance, relabelledInstance, seventhsInstance, forcedSenderInstance, unequalForcedSenderInstance}
	for _, fam := range ensembleFamilies {
		if fam.exit != exitWit {
			gens = append(gens, fam.gen)
		}
	}
	found, missed := 0, 0
	for g, gen := range gens {
		rng := rand.New(rand.NewSource(int64(600 + g)))
		for inst := 0; inst < 30; inst++ {
			if checkTarget(t, gen(rng)) {
				found++
			} else {
				missed++
			}
		}
	}
	if found < 50 || missed < 20 {
		t.Fatalf("the floor was met on %d instances and missed on %d; want 50 and 20", found, missed)
	}
}

// TestTargetReachesBruteForce: on instances small enough to enumerate, the
// target search, with an ample budget, finds a schedule exactly when one
// meets the floor — when the brute-force optimum is the floor.
func TestTargetReachesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	met, triangle := 0, ensembleFamilies[len(ensembleFamilies)-1]
	if triangle.exit != exitNone {
		t.Fatal("the last family is no longer the receiver triangle")
	}
	for trial := 0; trial < 200; trial++ {
		var tasks []Task
		switch trial % 3 {
		case 0:
			tasks = tinyDFSInstance(rng)
		case 1:
			tasks = seventhsInstance(rng)
		case 2:
			tasks = triangle.gen(rng)
		}
		opt, pb := bruteForceOptimal(t, tasks), provenBound(tasks)
		if checkTarget(t, tasks) != (opt <= pb) {
			t.Fatalf("trial %d: target search disagrees with brute force (optimum %v, floor %v)\ntasks: %+v", trial, opt, pb, tasks)
		}
		if opt <= pb {
			met++
		}
	}
	if met < 40 || met > 160 {
		t.Fatalf("the optimum met the floor on %d of 200 instances; want both outcomes 40 times", met)
	}
}

// residueInstance is the host-level problem of the p3 5-host resharding of
// a (96, 96) fp16 tensor from S0S1 on a (2,3) mesh at device 0 to S0S1 on a
// (3,2) mesh at device 8: 16 tasks, every sender forced, sender host 0's
// load (12 tasks, four of them to receiver 3) the floor. The improvement
// DFS spent its whole 50 000-node budget on it and ended 2 ulps above the
// floor; without the dominance table the target search misses it too.
func residueInstance() []Task {
	const a, b, c = 1.6384e-06, 8.192e-07, 4.096e-07
	return []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: a},
		{ID: 1, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: b},
		{ID: 2, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: b},
		{ID: 3, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: a},
		{ID: 4, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: b},
		{ID: 5, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: c},
		{ID: 6, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: c},
		{ID: 7, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: b},
		{ID: 8, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: b},
		{ID: 9, SenderHosts: []int{1}, ReceiverHosts: []int{2}, Duration: c},
		{ID: 10, SenderHosts: []int{1}, ReceiverHosts: []int{2}, Duration: c},
		{ID: 11, SenderHosts: []int{1}, ReceiverHosts: []int{2}, Duration: b},
		{ID: 12, SenderHosts: []int{0}, ReceiverHosts: []int{3}, Duration: a},
		{ID: 13, SenderHosts: []int{1}, ReceiverHosts: []int{3}, Duration: b},
		{ID: 14, SenderHosts: []int{1}, ReceiverHosts: []int{3}, Duration: b},
		{ID: 15, SenderHosts: []int{1}, ReceiverHosts: []int{3}, Duration: a},
	}
}

// TestTargetProvesResidue pins the residue instance: ClosedForm leaves it
// unproven, the improvement DFS ends above the floor under the default
// budget, the target search without its table spends its budget, and with
// it reaches the floor within targetNodes — so the ensemble ends there,
// proven, before any rng draw.
func TestTargetProvesResidue(t *testing.T) {
	tasks := residueInstance()
	pb := provenBound(tasks)
	if pb != 9.830399999999998e-06 {
		t.Fatalf("floor %v, want 9.830399999999998e-06", pb)
	}
	in := ClosedForm(tasks)
	if in.Proven() {
		t.Fatal("ClosedForm proves the residue instance: it no longer tests the target search")
	}
	if span := mustMakespan(t, tasks, DFSPruningNodesStop(tasks, 50_000, nil)); span <= pb {
		t.Fatalf("the improvement DFS reaches the floor (%v) within 50 000 nodes", span)
	}
	if _, found, nodes := targetSearch(tasks, pb, targetNodes, false); found {
		t.Fatalf("without the table the target search reaches the floor in %d nodes: the table is not what proves it", nodes)
	}
	p, found, nodes := targetSearch(tasks, pb, targetNodes, true)
	if !found {
		t.Fatalf("the target search spent its %d nodes without reaching the floor %v", targetNodes, pb)
	}
	if span := mustMakespan(t, tasks, p); span != pb {
		t.Fatalf("the target search returned makespan %v, floor %v", span, pb)
	}
	rng := rand.New(rand.NewSource(1))
	if got := in.Search(50_000, 32, rng, nil); !samePlan(got, p) {
		t.Fatalf("the ensemble returned %+v, not the target search's %+v", got, p)
	}
	if r := in.Report(); r.Exit != ExitTarget || !r.Proven || r.TargetNodes != nodes || r.GreedyTrials != 0 || r.DFSNodes != 0 {
		t.Fatalf("report %+v, want a proven exit at the target search after %d nodes", r, nodes)
	}
	if next, fresh := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); next != fresh {
		t.Fatal("the ensemble drew from the rng after the target search proved its plan")
	}
}

// spentTargetInstance draws three forced senders feeding three receivers
// with small integer durations until the target search spends its budget
// on one: a draft the ensemble must go on to search.
func spentTargetInstance(t *testing.T, rng *rand.Rand) []Task {
	t.Helper()
	for attempt := 0; attempt < 400; attempt++ {
		tasks := make([]Task, 16+rng.Intn(10))
		for i := range tasks {
			tasks[i] = Task{ID: i, SenderHosts: []int{rng.Intn(3)}, ReceiverHosts: []int{3 + rng.Intn(3)}, Duration: float64(1 + rng.Intn(5))}
		}
		if in := ClosedForm(tasks); in.Proven() {
			continue
		}
		if _, _, nodes := targetSearch(tasks, provenBound(tasks), targetNodes, true); nodes > targetNodes {
			return tasks
		}
	}
	t.Fatal("no instance in 400 draws makes the target search spend its budget")
	return nil
}

// TestTargetBudgetSpentFallsThrough: where the target search spends its
// budget, the ensemble goes on to GreedyRandomized and the DFS, and returns
// the eager reference's plan with a report that counts all three.
func TestTargetBudgetSpentFallsThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for inst := 0; inst < 3; inst++ {
		tasks := spentTargetInstance(t, rng)
		seed := int64(inst) + 1
		in := ClosedForm(tasks)
		got := in.Search(2000, 8, rand.New(rand.NewSource(seed)), nil)
		if want := referenceEnsembleNodes(tasks, 2000, 8, rand.New(rand.NewSource(seed))); !samePlan(got, want) {
			t.Fatalf("instance %d: ensemble diverged from reference\n got: %+v\nwant: %+v", inst, got, want)
		}
		r := in.Report()
		if r.TargetNodes != targetNodes+1 || r.GreedyTrials == 0 || r.Exit == ExitTarget {
			t.Fatalf("instance %d: report %+v, want a spent target search and greedy trials", inst, r)
		}
		if r.Proven != (r.Span <= r.Floor) || r.Span != mustMakespan(t, tasks, got) || r.Floor != provenBound(tasks) {
			t.Fatalf("instance %d: report %+v does not describe the plan returned", inst, r)
		}
	}
}

// TestTargetSearchAllocations: a target search takes its buffers and its
// dominance table from a pool, so once the pool holds one, a search that
// finds nothing allocates nothing, and one that finds a schedule allocates
// only its plan (what copying it out of the search allocates).
func TestTargetSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	tasks := residueInstance()
	pb := provenBound(tasks)
	if n := testing.AllocsPerRun(20, func() { targetSearch(tasks, pb, 64, true) }); n != 0 {
		t.Errorf("a target search that spends its budget allocates %v times", n)
	}
	plan := testing.AllocsPerRun(20, func() {
		s := dfsSearch{tasks: tasks, order: make([]int, len(tasks)), pick: make([]int, len(tasks))}
		s.adopt(0)
	}) - 2 // the search's order and pick
	if n := testing.AllocsPerRun(20, func() { targetSearch(tasks, pb, targetNodes, true) }); n != plan {
		t.Errorf("a target search that finds a plan allocates %v times; copying the plan out allocates %v", n, plan)
	}
	if n := testing.AllocsPerRun(20, func() { targetSearch(tasks, math.Nextafter(pb, 0), targetNodes, true) }); n != 0 {
		t.Errorf("a target search under an unreachable floor allocates %v times", n)
	}
}

// TestTargetSearchConcurrent: searches run at once each take their own
// pooled state — buffers, table and its stamps — and return what the same
// search returns alone.
func TestTargetSearchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	instances := [][]Task{residueInstance()}
	for len(instances) < 12 {
		instances = append(instances, hardDFSInstance(rng))
	}
	type result struct {
		p     Plan
		found bool
		nodes int
	}
	want := make([]result, len(instances))
	for i, tasks := range instances {
		want[i].p, want[i].found, want[i].nodes = targetSearch(tasks, provenBound(tasks), targetNodes, true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range instances {
				i := (k + 3*g) % len(instances)
				p, found, nodes := targetSearch(instances[i], provenBound(instances[i]), targetNodes, true)
				if found != want[i].found || nodes != want[i].nodes || !samePlan(p, want[i].p) {
					t.Errorf("goroutine %d instance %d: %v after %d nodes, alone %v after %d", g, i, found, nodes, want[i].found, want[i].nodes)
				}
			}
		}(g)
	}
	wg.Wait()
}
