package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoIndependent() []Task {
	return []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: 3},
		{ID: 1, SenderHosts: []int{1}, ReceiverHosts: []int{3}, Duration: 5},
	}
}

func TestMakespanIndependentTasksOverlap(t *testing.T) {
	tasks := twoIndependent()
	p := Naive(tasks)
	span, err := Makespan(tasks, p)
	if err != nil || span != 5 {
		t.Errorf("span = %v, %v; want 5 (tasks on disjoint hosts overlap)", span, err)
	}
}

func TestMakespanSharedReceiverSerializes(t *testing.T) {
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: 3},
		{ID: 1, SenderHosts: []int{1}, ReceiverHosts: []int{2}, Duration: 5},
	}
	span, _ := Makespan(tasks, Naive(tasks))
	if span != 8 {
		t.Errorf("span = %v, want 8 (shared receiver serializes, Eq. 3)", span)
	}
}

func TestMakespanSharedSenderSerializes(t *testing.T) {
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{2}, Duration: 3},
		{ID: 1, SenderHosts: []int{0}, ReceiverHosts: []int{3}, Duration: 5},
	}
	span, _ := Makespan(tasks, Naive(tasks))
	if span != 8 {
		t.Errorf("span = %v, want 8 (shared sender serializes)", span)
	}
}

func TestMakespanFullDuplex(t *testing.T) {
	// Host 1 receives task 0 while sending task 1: full duplex allows
	// overlap (§3's separate send/receive bandwidth).
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{1}, Duration: 4},
		{ID: 1, SenderHosts: []int{1}, ReceiverHosts: []int{2}, Duration: 4},
	}
	span, _ := Makespan(tasks, Naive(tasks))
	if span != 4 {
		t.Errorf("span = %v, want 4 (full duplex)", span)
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	tasks := twoIndependent()
	good := Naive(tasks)
	if err := Validate(tasks, good); err != nil {
		t.Fatal(err)
	}
	if err := Validate(tasks, Plan{Sender: good.Sender, Order: []int{0}}); err == nil {
		t.Error("short order should fail")
	}
	if err := Validate(tasks, Plan{Sender: good.Sender, Order: []int{0, 0}}); err == nil {
		t.Error("duplicate order entry should fail")
	}
	if err := Validate(tasks, Plan{Sender: map[int]int{0: 9, 1: 1}, Order: []int{0, 1}}); err == nil {
		t.Error("non-candidate sender should fail")
	}
	if err := Validate(tasks, Plan{Sender: map[int]int{0: 0}, Order: []int{0, 1}}); err == nil {
		t.Error("missing sender should fail")
	}
	if err := Validate(tasks, Plan{Sender: good.Sender, Order: []int{0, 7}}); err == nil {
		t.Error("unknown task in order should fail")
	}
	dup := []Task{{ID: 3, SenderHosts: []int{0}, ReceiverHosts: []int{1}, Duration: 1}, {ID: 3, SenderHosts: []int{0}, ReceiverHosts: []int{1}, Duration: 1}}
	if err := Validate(dup, Plan{Sender: map[int]int{3: 0}, Order: []int{3, 3}}); err == nil {
		t.Error("duplicate task IDs should fail")
	}
}

func TestNaivePicksLowestSender(t *testing.T) {
	tasks := []Task{{ID: 0, SenderHosts: []int{3, 1, 2}, ReceiverHosts: []int{5}, Duration: 1}}
	p := Naive(tasks)
	if p.Sender[0] != 1 {
		t.Errorf("naive sender = %d, want 1", p.Sender[0])
	}
}

// TestLoadBalanceSpreadsSenders reproduces the paper's Fig. 8 case-2
// pathology: all tasks can be sent by either of two hosts; Naive sends
// everything from host 0 (congestion) while LoadBalanceOnly splits evenly.
func TestLoadBalanceSpreadsSenders(t *testing.T) {
	var tasks []Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, Task{ID: i, SenderHosts: []int{0, 1}, ReceiverHosts: []int{2 + i%4}, Duration: 1})
	}
	naiveSpan, _ := Makespan(tasks, Naive(tasks))
	lbSpan, _ := Makespan(tasks, LoadBalanceOnly(tasks))
	if naiveSpan != 8 {
		t.Errorf("naive span = %v, want 8", naiveSpan)
	}
	if lbSpan > naiveSpan/1.5 {
		t.Errorf("load-balanced span = %v, should clearly beat naive %v", lbSpan, naiveSpan)
	}
}

func TestLPTBalancesLoads(t *testing.T) {
	// Durations 4,3,3,2 over two senders: LPT assigns 4+2 vs 3+3 = 6/6.
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0, 1}, ReceiverHosts: []int{2}, Duration: 4},
		{ID: 1, SenderHosts: []int{0, 1}, ReceiverHosts: []int{3}, Duration: 3},
		{ID: 2, SenderHosts: []int{0, 1}, ReceiverHosts: []int{4}, Duration: 3},
		{ID: 3, SenderHosts: []int{0, 1}, ReceiverHosts: []int{5}, Duration: 2},
	}
	p := LoadBalanceOnly(tasks)
	load := map[int]float64{}
	for _, task := range tasks {
		load[p.Sender[task.ID]] += task.Duration
	}
	if load[0] != 6 || load[1] != 6 {
		t.Errorf("LPT loads = %v, want 6/6", load)
	}
}

// TestDFSFindsOptimalOrder builds a case where sender choice alone cannot
// help — ordering matters. Two sender hosts each hold two tasks; receivers
// conflict so that a bad order forces idling.
func TestDFSFindsOptimalOrder(t *testing.T) {
	// Tasks: A (s0 -> r0), B (s0 -> r1), C (s1 -> r0), D (s1 -> r1).
	// Optimal: run A with D, then B with C: makespan 2. Bad order (A,C,B,D)
	// serializes on receivers: 2 as well with list scheduling... use
	// unequal durations to create a real gap.
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{10}, Duration: 2},
		{ID: 1, SenderHosts: []int{0}, ReceiverHosts: []int{11}, Duration: 1},
		{ID: 2, SenderHosts: []int{1}, ReceiverHosts: []int{10}, Duration: 1},
		{ID: 3, SenderHosts: []int{1}, ReceiverHosts: []int{11}, Duration: 2},
	}
	p := DFSPruningNodesStop(tasks, 1<<20, nil)
	span, err := Makespan(tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: pair (0 with 3) then (1 with 2): 2 + 1 = 3.
	if span > 3+1e-9 {
		t.Errorf("DFS span = %v, want 3", span)
	}
}

func TestDFSEmptyAndSmall(t *testing.T) {
	p := DFSPruningNodesStop(nil, 1<<20, nil)
	if len(p.Order) != 0 {
		t.Errorf("empty problem order = %v", p.Order)
	}
	one := []Task{{ID: 7, SenderHosts: []int{1, 2}, ReceiverHosts: []int{3}, Duration: 4}}
	p = DFSPruningNodesStop(one, 1<<20, nil)
	span, err := Makespan(one, p)
	if err != nil || span != 4 {
		t.Errorf("single-task span = %v, %v", span, err)
	}
}

func TestGreedyRandomizedValidAndGood(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// The paper's observation: unit tasks of a resharding are mostly
	// identical, so randomized batching finds optimal packings. 4 sender
	// hosts x 4 receiver hosts, 16 identical tasks, all-to-all style.
	var tasks []Task
	id := 0
	for s := 0; s < 4; s++ {
		for r := 0; r < 4; r++ {
			tasks = append(tasks, Task{ID: id, SenderHosts: []int{s}, ReceiverHosts: []int{4 + r}, Duration: 1})
			id++
		}
	}
	p := GreedyRandomized(tasks, 32, rng)
	if err := Validate(tasks, p); err != nil {
		t.Fatal(err)
	}
	span, _ := Makespan(tasks, p)
	// Perfect packing: 4 rounds of 4 disjoint tasks.
	if span > 4+1e-9 {
		t.Errorf("greedy randomized span = %v, want 4", span)
	}
}

// TestGreedyRandomizedAllocationsFlat: every buffer GreedyRandomized uses is
// allocated before the first trial, so 64 trials allocate what one does —
// however many rounds either takes.
func TestGreedyRandomizedAllocationsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for inst := 0; inst < 10; inst++ {
		tasks := hardDFSInstance(rng)
		allocs := func(trials int) float64 {
			src := rand.New(rand.NewSource(int64(inst)))
			return testing.AllocsPerRun(20, func() { GreedyRandomized(tasks, trials, src) })
		}
		if one, many := allocs(1), allocs(64); one != many {
			t.Fatalf("instance %d: %v allocations with 1 trial, %v with 64", inst, one, many)
		}
	}
}

// TestMakespanAndFloorAllocationFree: evaluating and validating a plan and
// working out the floor allocate nothing — IDs and hosts are resolved by
// scanning, the seen-set and the host free times of a problem this size live
// on the stack, and leastChain's table is pooled — whether or not the IDs
// name the tasks' positions.
func TestMakespanAndFloorAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, countDown := range []bool{false, true} {
		tasks := make([]Task, 64)
		for i := range tasks {
			tasks[i] = Task{ID: i, SenderHosts: []int{rng.Intn(8), rng.Intn(8)}, ReceiverHosts: []int{8 + rng.Intn(8)}, Duration: 1 + float64(rng.Intn(97))/7}
			if countDown {
				tasks[i].ID = 1000 - i
			}
		}
		p := LoadBalanceOnly(tasks)
		for name, f := range map[string]func(){
			"Validate":    func() { _ = Validate(tasks, p) },
			"Makespan":    func() { _, _ = Makespan(tasks, p) },
			"provenBound": func() { provenBound(tasks) },
		} {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s (IDs counting down: %v): %v allocations per call", name, countDown, n)
			}
		}
	}
}

func TestEnsembleNeverWorseThanBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		var tasks []Task
		for i := 0; i < n; i++ {
			ns := 1 + r.Intn(3)
			senders := make([]int, ns)
			for j := range senders {
				senders[j] = r.Intn(4)
			}
			nr := 1 + r.Intn(3)
			recvs := make([]int, nr)
			for j := range recvs {
				recvs[j] = 4 + r.Intn(4)
			}
			tasks = append(tasks, Task{ID: i, SenderHosts: senders, ReceiverHosts: recvs, Duration: float64(1 + r.Intn(9))})
		}
		in := ClosedForm(tasks)
		p := in.Search(50000, 16, rng, nil)
		if Validate(tasks, p) != nil {
			return false
		}
		span, err := Makespan(tasks, p)
		if err != nil {
			return false
		}
		naive, _ := Makespan(tasks, Naive(tasks))
		lb, _ := Makespan(tasks, LoadBalanceOnly(tasks))
		return span <= naive+1e-9 && span <= lb+1e-9 && span >= LowerBound(tasks)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLowerBound(t *testing.T) {
	tasks := []Task{
		{ID: 0, SenderHosts: []int{0}, ReceiverHosts: []int{5}, Duration: 3},
		{ID: 1, SenderHosts: []int{1}, ReceiverHosts: []int{5}, Duration: 4},
	}
	if lb := LowerBound(tasks); lb != 7 {
		t.Errorf("LowerBound = %v, want 7 (receiver 5 total)", lb)
	}
	if LowerBound(nil) != 0 {
		t.Error("empty lower bound should be 0")
	}
}

func TestMakespanRejectsInvalidPlan(t *testing.T) {
	tasks := twoIndependent()
	if _, err := Makespan(tasks, Plan{Sender: map[int]int{}, Order: []int{0, 1}}); err == nil {
		t.Error("invalid plan should be rejected")
	}
}

// Property: DFS with a generous budget is optimal on tiny instances
// (verified against brute force).
func TestDFSOptimalSmall(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		var tasks []Task
		for i := 0; i < n; i++ {
			tasks = append(tasks, Task{
				ID:            i,
				SenderHosts:   []int{r.Intn(2)},
				ReceiverHosts: []int{2 + r.Intn(2)},
				Duration:      float64(1 + r.Intn(5)),
			})
		}
		p := DFSPruningNodesStop(tasks, 1<<20, nil)
		span, err := Makespan(tasks, p)
		if err != nil {
			return false
		}
		best := bruteForce(tasks)
		return math.Abs(span-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// bruteForce enumerates all orders (senders are single-candidate above).
func bruteForce(tasks []Task) float64 {
	n := len(tasks)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := Plan{Sender: map[int]int{}}
			for _, i := range perm {
				p.Order = append(p.Order, tasks[i].ID)
				p.Sender[tasks[i].ID] = tasks[i].SenderHosts[0]
			}
			if s, err := Makespan(tasks, p); err == nil && s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}
