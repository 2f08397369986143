// Package schedule solves the paper's §3.2 load-balancing and ordering
// problem (Eq. 1-3): given the unit communication tasks of a cross-mesh
// resharding — each with candidate sender hosts n_i, receiver hosts m_i and
// duration T_i — pick one sender per task and an execution order that
// minimize the completion time of the last task, under the constraint that
// tasks sharing a host never overlap.
//
// Five algorithms are provided, mirroring the paper: Naive (lowest-index
// sender, arbitrary order), LoadBalanceOnly (classic LPT greedy on Eq. 4),
// GreedyLoad (the baselines' input-order load balancing, §5.1.2),
// DFSPruningNodesStop (exhaustive search under a node budget), and
// GreedyRandomized (iterative maximal non-conflicting batches).
// EnsembleNodesStop returns the best of six candidates, which is AlpaComm's
// configuration ("we run both algorithms and choose the better result",
// §5.3.1), offered in this order: Naive, LoadBalanceOnly, the witness (see
// below), the target search, GreedyRandomized and the DFS. It takes two
// steps: ClosedForm (the first three) and, only if that left the optimum
// unproven, Search (the other three). The target search is the DFS in a
// second mode: it looks only for a schedule that meets the floor, and
// prunes at the floor rather than at an incumbent (see targetSearch).
// GreedyEnsemble is the search-free counterpart (ClosedForm's three, then
// GreedyLoad) for a server defending its latency. Incumbent.Report says how
// the ensemble ended.
// Every budget is counted in DFS nodes, never read off a clock, so every
// plan is a pure function of the tasks, the budgets and the rng.
//
// The ensemble does not build what cannot win. Every schedule serializes the
// tasks of one receiver host, and the tasks only one host can send, so the
// heaviest such load is a floor under every makespan (LowerBound). provenBound
// is that floor taken exactly in floating point: each load counts as the
// least sum any launch order of its durations reaches, so no plan evaluates
// below it and the optimum of a load-bound problem meets it to the bit. (A
// load too varied to work that out counts as its sum shrunk by more than its
// rounding.) Candidates are built in a fixed order, cheapest first, a later
// one replaces the incumbent only when strictly better, and nothing
// evaluates below the floor — so once a candidate reaches it, the candidates
// after it (the randomized trials and their rng draws, the search) are
// skipped, and so is the rest of a search that reaches it midway. The plan
// returned is the one building and ranking everything would return, bit for
// bit. The target search needs the floor to be reachable: it returns a
// schedule that meets it or nothing, and where it finds one, nothing after
// it is built.
//
// The floor also yields a candidate. Where it is the least chain of a load
// of unequal durations, the DP that worked that chain out holds a launch
// order reaching it; the witness launches the load's tasks in that order
// before everything else (see ClosedForm). It is offered after LPT, so a
// load-bound problem whose only gap to the floor is an ulp of launch-order
// rounding is proven without a search.
package schedule

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// Task is one host-level communication task.
type Task struct {
	// ID identifies the task; IDs must be unique within a problem.
	ID int
	// SenderHosts are the candidate hosts holding the data (n_i), at least
	// one.
	SenderHosts []int
	// ReceiverHosts are the hosts that must receive the data (m_i), at
	// least one.
	ReceiverHosts []int
	// Duration is the task's execution time T_i (e.g. bytes / NIC
	// bandwidth for a pipelined broadcast).
	Duration float64
}

// Plan is a solution: a sender per task and a launch order.
type Plan struct {
	// Sender maps task ID to the chosen sender host.
	Sender map[int]int
	// Order lists task IDs in launch order.
	Order []int
}

// Validate checks that the plan covers every task exactly once and picks
// senders from the candidate sets. It builds no index: IDs are resolved by
// taskIndex, and the tasks an order has already named are bits of a set
// that lives on the stack up to 1024 tasks.
func Validate(tasks []Task, p Plan) error {
	if len(p.Order) != len(tasks) {
		return fmt.Errorf("schedule: order has %d entries for %d tasks", len(p.Order), len(tasks))
	}
	// While IDs ascend they are unique; past the first that does not, each
	// is compared with every earlier one.
	ascending := true
	for i := 1; i < len(tasks); i++ {
		if ascending = ascending && tasks[i].ID > tasks[i-1].ID; ascending {
			continue
		}
		for j := range tasks[:i] {
			if tasks[j].ID == tasks[i].ID {
				return fmt.Errorf("schedule: duplicate task ID %d", tasks[i].ID)
			}
		}
	}
	var buf [16]uint64
	seen := buf[:]
	if words := (len(tasks) + 63) / 64; words > len(buf) {
		seen = make([]uint64, words)
	}
	for _, id := range p.Order {
		i := taskIndex(tasks, id)
		if i < 0 {
			return fmt.Errorf("schedule: order references unknown task %d", id)
		}
		if seen[i/64]&(1<<(i%64)) != 0 {
			return fmt.Errorf("schedule: task %d appears twice in order", id)
		}
		seen[i/64] |= 1 << (i % 64)
		s, ok := p.Sender[id]
		if !ok {
			return fmt.Errorf("schedule: no sender chosen for task %d", id)
		}
		if !slices.Contains(tasks[i].SenderHosts, s) {
			return fmt.Errorf("schedule: sender %d for task %d not among candidates %v", s, id, tasks[i].SenderHosts)
		}
	}
	return nil
}

// taskIndex returns the index of the task with the given ID, or -1. The
// index the ID names is tried first — resharding numbers its tasks that
// way — and the tasks are scanned otherwise.
func taskIndex(tasks []Task, id int) int {
	if uint(id) < uint(len(tasks)) && tasks[id].ID == id {
		return id
	}
	for i := range tasks {
		if tasks[i].ID == id {
			return i
		}
	}
	return -1
}

// Makespan evaluates a plan with list scheduling: tasks launch in Order;
// each starts as soon as its sender host and all receiver hosts are free,
// and occupies them for its duration (Eq. 3 exclusivity). Sender-side
// occupancy uses the host's send side and receiver-side occupancy the
// receive side — hosts are full duplex (§3), so a host may send one task
// while receiving another. Hosts are matched by scanning, as in
// heaviestLoad, and the free times of up to 16 live on the stack.
func Makespan(tasks []Task, p Plan) (float64, error) {
	if err := Validate(tasks, p); err != nil {
		return 0, err
	}
	// hostFree is when a host's send side and its receive side come free.
	type hostFree struct {
		host       int
		send, recv float64
	}
	var buf [16]hostFree
	free := buf[:0]
	slot := func(host int) int {
		for k := range free {
			if free[k].host == host {
				return k
			}
		}
		free = append(free, hostFree{host: host})
		return len(free) - 1
	}
	var makespan float64
	for _, id := range p.Order {
		t := &tasks[taskIndex(tasks, id)]
		s := slot(p.Sender[id])
		start := free[s].send
		for _, r := range t.ReceiverHosts {
			if f := free[slot(r)].recv; f > start {
				start = f
			}
		}
		finish := start + t.Duration
		free[s].send = finish
		for _, r := range t.ReceiverHosts {
			free[slot(r)].recv = finish
		}
		if finish > makespan {
			makespan = finish
		}
	}
	return makespan, nil
}

// serialLoad is the work one side of one host must run back to back: a
// receiver host's receive side is occupied by every task that lists it
// (Eq. 3), and a host's send side by every task that has no other candidate
// sender. Either way its durations chain into a floor under every schedule's
// makespan.
type serialLoad struct {
	host int
	// send is the host's send side; its receive side is a separate resource
	// (full duplex) with a load of its own.
	send bool
	// sum adds the durations in task order, starting from zero.
	sum   float64
	tasks int
	// first is the first duration added; uniform reports whether every
	// later one is bit-equal to it.
	first   float64
	uniform bool
}

// carries reports whether task t is part of the load.
func (l *serialLoad) carries(t *Task) bool {
	if l.send {
		s, ok := forcedSender(t)
		return ok && s == l.host
	}
	return slices.Contains(t.ReceiverHosts, l.host)
}

// shrunk is the load's sum made smaller than any launch order's chain can
// be: every chain and the sum itself are within a factor (1±2^-53)^(k-1) of
// the real sum of k durations, so they differ by less than the factor
// 1-k*2^-51 applied here (its own rounding included).
func (l *serialLoad) shrunk() float64 {
	return l.sum * (1 - float64(l.tasks)*0x1p-51)
}

// forcedSender reports the host a task must send from: the one host its
// candidate list names, however many times it names it.
func forcedSender(t *Task) (host int, ok bool) {
	if len(t.SenderHosts) == 0 {
		return 0, false
	}
	for _, s := range t.SenderHosts[1:] {
		if s != t.SenderHosts[0] {
			return 0, false
		}
	}
	return t.SenderHosts[0], true
}

// heaviestLoad returns the larger of the longest single duration and the
// heaviest serial load: one load per receiver host and one per host that
// some task is forced to send from. A task that lists a receiver host twice
// counts once. Tasks with a choice of sender load no send side — the floor
// must hold whichever they pick. A load counts as its task-order sum, or,
// with chain, as the least sum any launch order reaches (see provenBound),
// and witness is then the first load whose least chain, worked out by the
// DP, is the floor (a zero load, of no tasks, if the floor is set otherwise).
// Hosts are matched by scanning: a problem names a handful of them, which a
// scan beats a map on, and the loads of up to 16 fit on the stack.
func heaviestLoad(tasks []Task, chain bool) (heaviest float64, witness serialLoad) {
	var buf [16]serialLoad
	loads := buf[:0]
	add := func(host int, send bool, d float64) {
		for k := range loads {
			if l := &loads[k]; l.host == host && l.send == send {
				l.sum += d
				l.tasks++
				l.uniform = l.uniform && d == l.first
				return
			}
		}
		loads = append(loads, serialLoad{host: host, send: send, sum: d, tasks: 1, first: d, uniform: true})
	}
	for i := range tasks {
		t := &tasks[i]
		if t.Duration > heaviest {
			heaviest = t.Duration
		}
		if s, ok := forcedSender(t); ok {
			add(s, true, t.Duration)
		}
	receivers:
		for j, r := range t.ReceiverHosts {
			for _, prev := range t.ReceiverHosts[:j] {
				if prev == r {
					continue receivers
				}
			}
			add(r, false, t.Duration)
		}
	}
	// A uniform load chains to its sum in every order. Any other load chains
	// to no less than its shrunk sum and no more than its sum, so its least
	// chain is worked out only while that sum is above the floor so far.
	for i := range loads {
		l := &loads[i]
		b := l.sum
		if chain && !l.uniform {
			b = l.shrunk()
		}
		if b > heaviest {
			heaviest = b
		}
	}
	for i := range loads {
		if l := &loads[i]; chain && !l.uniform && l.sum > heaviest {
			b, exact := leastChain(tasks, l)
			if exact && (b > heaviest || b == heaviest && witness.tasks == 0) {
				witness = *l
			}
			if b > heaviest {
				heaviest = b
			}
		}
	}
	return heaviest, witness
}

// chainStates caps the states leastChain works through for one load: the
// largest load the benchmark populations produce has 1728.
const chainStates = 4096

// chainTables hands leastChain its table, so that a floor allocates nothing
// once every concurrent caller has one.
var chainTables = sync.Pool{New: func() any { return new([chainStates]float64) }}

// leastChain returns the least value the chain fl(fl(d1+d2)+d3)... of the
// load's durations takes over all their orders, worked out by chainDP; a
// load with more than chainStates states counts as its shrunk sum instead,
// and exact is false.
func leastChain(tasks []Task, l *serialLoad) (least float64, exact bool) {
	dp, ok := newChainDP(tasks, l)
	if !ok {
		return l.shrunk(), false
	}
	table := chainTables.Get().(*[chainStates]float64)
	defer chainTables.Put(table)
	v := table[:dp.states]
	dp.fill(v)
	return v[dp.states-1], true
}

// chainDP is the dynamic program behind a load's least chain. fl(x+d) is
// monotone in x, so the least chain of a multiset of durations ends with
// some duration added to the least chain of the rest: over v_k, the
// distinct durations, and c, how many of each have been added, V(c) = min
// over k with c_k > 0 of fl(V(c-e_k)+v_k), from V(0) = 0. The counts span
// Π(m_k+1) states for m_k copies of v_k; state c sits at Σ c_k*stride[k] of
// a flat table.
type chainDP struct {
	// Twelve distinct durations already make 2^12 = chainStates states.
	vals             [12]float64
	copies, stride   [12]int
	distinct, states int
}

// newChainDP counts the load's distinct durations and their copies; ok is
// false when they span more than chainStates states.
func newChainDP(tasks []Task, l *serialLoad) (dp chainDP, ok bool) {
	dp.states = 1
	for i := range tasks {
		t := &tasks[i]
		if !l.carries(t) {
			continue
		}
		k := 0
		for k < dp.distinct && dp.vals[k] != t.Duration {
			k++
		}
		if k == len(dp.vals) {
			return dp, false
		}
		if k == dp.distinct {
			dp.vals[k] = t.Duration
			dp.distinct++
		}
		dp.states = dp.states / (dp.copies[k] + 1) * (dp.copies[k] + 2)
		dp.copies[k]++
		if dp.states > chainStates {
			return dp, false
		}
	}
	dp.stride[0] = 1
	for k := 1; k < dp.distinct; k++ {
		dp.stride[k] = dp.stride[k-1] * (dp.copies[k-1] + 1)
	}
	return dp, true
}

// fill works V out for every state into v, of length states.
func (dp *chainDP) fill(v []float64) {
	// count is the state being filled.
	var count [12]int
	v[0] = 0
	for c := 1; c < len(v); c++ {
		for k := 0; ; k++ {
			if count[k] < dp.copies[k] {
				count[k]++
				break
			}
			count[k] = 0
		}
		least := math.Inf(1)
		for k := 0; k < dp.distinct; k++ {
			if count[k] > 0 {
				if x := v[c-dp.stride[k]] + dp.vals[k]; x < least {
					least = x
				}
			}
		}
		v[c] = least
	}
}

// witnessOrder appends to order, which has room for every task, the launch
// order of the witness candidate: first the load's tasks, in an order whose
// chain is the load's least (backtracked through chainDP from the full
// state: the last duration is one whose addition reaches V there, and so on
// down), then every other task; within a duration, and among the others,
// tasks keep their order in lpt. Launched first, the load's tasks run back
// to back — each one's other hosts are free by the time its predecessor
// finishes, as only load tasks ran before — so the load ends at its least
// chain. It reports false for a load past chainStates.
func witnessOrder(tasks []Task, l *serialLoad, lpt, order []int) ([]int, bool) {
	dp, ok := newChainDP(tasks, l)
	if !ok {
		return order, false
	}
	table := chainTables.Get().(*[chainStates]float64)
	defer chainTables.Put(table)
	v := table[:dp.states]
	dp.fill(v)
	// First the class of each launch, last launch first.
	head := order[len(order) : len(order)+l.tasks]
	c := dp.states - 1
	for pos := l.tasks - 1; pos >= 0; pos-- {
		for k := 0; k < dp.distinct; k++ {
			if c/dp.stride[k]%(dp.copies[k]+1) > 0 && v[c-dp.stride[k]]+dp.vals[k] == v[c] {
				head[pos] = k
				c -= dp.stride[k]
				break
			}
		}
	}
	// Then each launch's task: the class's next member in lpt.
	var next [12]int
	for pos, k := range head {
		for ; ; next[k]++ {
			id := lpt[next[k]]
			if t := &tasks[taskIndex(tasks, id)]; t.Duration == dp.vals[k] && l.carries(t) {
				head[pos] = id
				next[k]++
				break
			}
		}
	}
	order = order[:len(order)+l.tasks]
	for _, id := range lpt {
		if !l.carries(&tasks[taskIndex(tasks, id)]) {
			order = append(order, id)
		}
	}
	return order, true
}

// LowerBound returns a makespan lower bound independent of the plan: the
// longest single task, and the heaviest serial load — a receiver host's
// total incoming work, or the total of the tasks that can only be sent from
// one host. It bounds the makespan over the reals; a schedule evaluated in
// floating point can land an ulp under it (see provenBound).
func LowerBound(tasks []Task) float64 {
	lb, _ := heaviestLoad(tasks, false)
	return lb
}

// provenBound is the floor under every makespan Makespan and the DFS can
// compute for the tasks, exact in their floating-point arithmetic: no valid
// plan evaluates below it, so a plan that meets it is optimal and a search
// that only adopts strictly smaller makespans can change nothing.
//
// The tasks of one serial load finish no earlier than the chain
// fl(fl(d1+d2)+d3)... taken in their launch order: each starts at or after
// the time its host's side came free (recvFree[r] for a receiver, sendFree[s]
// for a forced sender), which is at or after its predecessor's finish, and
// fl(a+d) is monotone in a. Tasks that merely chose the same sender only push
// that time later. Which value the chain has depends on the order: with
// durations like 1+k/7 one order can sum an ulp below another, and the DFS
// adopts it. So each load counts as the least chain any order of its
// durations reaches (leastChain) — on a load of bit-equal durations that is
// its task-order sum, as every order performs the same additions. A load
// too varied to work that out (more than chainStates count vectors) counts
// as its shrunk sum, within rounding below every order's chain. The longest
// single task needs no correction: a task that starts at a >= 0 finishes at
// fl(a+d) >= d.
//
// Durations that are negative or NaN, or that overflow, void the argument;
// the bound is then 0, which only a makespan of 0 meets.
func provenBound(tasks []Task) float64 {
	lb, _ := provenFloor(tasks)
	return lb
}

// provenFloor is provenBound and the load the witness candidate is built
// from: the first whose least chain, worked out exactly, is the floor (see
// heaviestLoad), or a zero load if there is none.
func provenFloor(tasks []Task) (float64, serialLoad) {
	for i := range tasks {
		if !(tasks[i].Duration >= 0) {
			return 0, serialLoad{}
		}
	}
	lb, witness := heaviestLoad(tasks, true)
	if math.IsInf(lb, 1) {
		return 0, serialLoad{}
	}
	return lb, witness
}

// Naive is the paper's baseline: every task is sent by its lowest-indexed
// candidate host, in task-ID order.
func Naive(tasks []Task) Plan {
	p := Plan{Sender: map[int]int{}}
	for _, t := range tasks {
		min := t.SenderHosts[0]
		for _, c := range t.SenderHosts {
			if c < min {
				min = c
			}
		}
		p.Sender[t.ID] = min
		p.Order = append(p.Order, t.ID)
	}
	return p
}

// LoadBalanceOnly solves the Eq. 4 relaxation with the classical LPT
// greedy: GreedyLoad's assignment over the tasks sorted by descending
// duration (ties by ID). The order is the assignment order (longest
// first).
func LoadBalanceOnly(tasks []Task) Plan {
	idx := make([]int, len(tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if tasks[idx[a]].Duration != tasks[idx[b]].Duration {
			return tasks[idx[a]].Duration > tasks[idx[b]].Duration
		}
		return tasks[idx[a]].ID < tasks[idx[b]].ID
	})
	return lightestLoad(tasks, idx)
}

// GreedyLoad assigns each task, in input order, to the candidate sender
// with the lowest committed load (ties to the lower host id) — the
// input-order counterpart of LoadBalanceOnly, matching the baseline
// systems' load balancing (§5.1.2). It is cheap enough to run per task
// on the serving hot path.
func GreedyLoad(tasks []Task) Plan { return lightestLoad(tasks, nil) }

// lightestLoad is GreedyLoad's assignment over tasks[idx[0]],
// tasks[idx[1]], ..., or over tasks in input order when idx is nil.
func lightestLoad(tasks []Task, idx []int) Plan {
	load := map[int]float64{}
	p := Plan{Sender: map[int]int{}}
	for k := range tasks {
		t := &tasks[k]
		if idx != nil {
			t = &tasks[idx[k]]
		}
		best, bestLoad := -1, math.Inf(1)
		for _, c := range t.SenderHosts {
			if load[c] < bestLoad || (load[c] == bestLoad && c < best) {
				best, bestLoad = c, load[c]
			}
		}
		p.Sender[t.ID] = best
		load[best] += t.Duration
		p.Order = append(p.Order, t.ID)
	}
	return p
}

// GreedyEnsemble is the search-free companion of EnsembleNodesStop: the best of
// Naive, LoadBalanceOnly, the witness (ClosedForm's three) and GreedyLoad by
// list-scheduled makespan, ties going to the earlier, each built only while
// the ones before it are not proven optimal (see Incumbent.offer). No DFS, no randomized trials, no RNG
// — O(n log n) and deterministic without a seed. This is the plan quality
// an overloaded server can afford while defending its latency SLO: the
// admission controller's degraded mode plans with it instead of the
// ensemble DFS.
func GreedyEnsemble(tasks []Task) Plan {
	in := ClosedForm(tasks)
	_ = in.proven || in.offer(GreedyLoad(tasks), ExitNone)
	return in.best
}

// StopStride is how many DFS nodes one budget slice spans: a stop function
// is polled once per slice, so an aborted search returns within one
// slice's worth of work while an uncancelled search never pays more than
// one predicate call per StopStride nodes.
const StopStride = 2048

// DFSPruningNodesStop searches jointly over sender assignments and launch
// orders with depth-first search, seeded with the LPT plan and pruning every
// branch whose partial makespan already meets the best complete schedule
// found (span >= bestSpan; there is no look-ahead on future load). The
// search visits at most maxNodes states and returns the best plan seen, so
// the result is a pure function of its inputs — identical across runs,
// machines and concurrent callers; with a generous budget and few tasks (the
// paper reports < 20) it is optimal. stop (when non-nil) is polled between
// node-budget slices (every StopStride visited states) and a true return
// abandons the search, returning the best plan found so far; polling does
// not perturb the exploration order.
//
// The search also stops the moment its incumbent is proven optimal: when the
// LPT seed, or a schedule adopted mid-search, meets provenBound. The
// incumbent is only ever replaced by a strictly smaller makespan and no
// schedule evaluates below that bound, so the rest of the search could not
// change the answer. The bound is each serial load's least chain in the
// search's own floating-point sums, not a sum over the reals — see
// provenBound for why plain LowerBound would not do — so a search that finds
// a load-bound optimum stops there rather than spending its budget on a
// floor a few ulps below it.
func DFSPruningNodesStop(tasks []Task, maxNodes int, stop func() bool) Plan {
	p, _ := dfsPruning(tasks, maxNodes, stop, nil)
	return p
}

// frontierBit is one task's position in a frontier row: word w of the row,
// bit mask within it. The zero value names no task.
type frontierBit struct {
	word int
	mask uint64
}

func bitOf(i int) frontierBit { return frontierBit{i / 64, 1 << (i % 64)} }

// symmetryFrontier groups the tasks into symmetry classes — tasks with
// identical (SenderHosts, ReceiverHosts, Duration), which the DFS prunes
// with: exploring two interchangeable tasks at one node explores the same
// subtree twice, so a node tries only the first unscheduled member of each
// class. Members are therefore scheduled in index order, the unscheduled
// ones of a class are always a suffix of it, and the tasks a node tries are
// the set bits of one row of ⌈n/64⌉ words — which also names exactly the
// tasks scheduled so far. It fills root, zeroed and ⌈n/64⌉ words long, with
// the root's row, and next, zeroed and one per task, with the bit of the
// next member of each task's class (zero for the last), which takes its
// place in the row once it is scheduled.
func symmetryFrontier(tasks []Task, root []uint64, next []frontierBit) {
	n := len(tasks)
	for i := range tasks {
		b := bitOf(i)
		root[b.word] |= b.mask
		for j := i + 1; j < n; j++ {
			if sameTaskShape(&tasks[i], &tasks[j]) {
				next[i] = bitOf(j)
				break
			}
		}
	}
	// A class's first member is the only one no other member names.
	for _, b := range next {
		root[b.word] &^= b.mask
	}
}

func sameTaskShape(a, b *Task) bool {
	if a.Duration != b.Duration || len(a.SenderHosts) != len(b.SenderHosts) || len(a.ReceiverHosts) != len(b.ReceiverHosts) {
		return false
	}
	for i := range a.SenderHosts {
		if a.SenderHosts[i] != b.SenderHosts[i] {
			return false
		}
	}
	for i := range a.ReceiverHosts {
		if a.ReceiverHosts[i] != b.ReceiverHosts[i] {
			return false
		}
	}
	return true
}

// hostIndex renumbers the host ids a problem mentions to 0..len-1, in
// order of first appearance, by scanning (see heaviestLoad).
type hostIndex []int

func (h *hostIndex) dense(host int) int {
	for i, v := range *h {
		if v == host {
			return i
		}
	}
	*h = append(*h, host)
	return len(*h) - 1
}

// taskSlots are one task's hosts renumbered by hostIndex: its candidate
// senders and its receivers, each in task order.
type taskSlots struct{ senders, receivers []int }

// slotBuffers hold every task's slots, all windows of one flat buffer, so
// that a search taken from a pool builds them again in the same memory.
type slotBuffers struct {
	slots      []taskSlots
	hosts, ids []int
}

// fill renumbers the hosts of a problem once into b's buffers, grown as
// needed, and returns every task's slots and the number of hosts.
func (b *slotBuffers) fill(tasks []Task) ([]taskSlots, int) {
	total := 0
	for i := range tasks {
		total += len(tasks[i].SenderHosts) + len(tasks[i].ReceiverHosts)
	}
	buf := resized(b.hosts, total)[:0]
	slots := resized(b.slots, len(tasks))
	index := hostIndex(b.ids[:0])
	for i := range tasks {
		lo := len(buf)
		for _, h := range tasks[i].SenderHosts {
			buf = append(buf, index.dense(h))
		}
		mid := len(buf)
		for _, h := range tasks[i].ReceiverHosts {
			buf = append(buf, index.dense(h))
		}
		slots[i] = taskSlots{senders: buf[lo:mid:mid], receivers: buf[mid:len(buf):len(buf)]}
	}
	b.slots, b.hosts, b.ids = slots, buf, index
	return slots, len(index)
}

// resized returns b with length n and every element zero, reusing its
// memory when it holds n.
func resized[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// lptSeed is what every search starts from — the LPT plan, its makespan and
// provenBound — as a caller that has already computed them hands them over.
type lptSeed struct {
	plan  Plan
	span  float64
	err   error // of the makespan evaluation
	bound float64
}

// dfsPruning runs the search under a budget of maxNodes nodes (at least
// one), polling stop (when non-nil) every StopStride nodes, and ends early
// once the incumbent meets provenBound. All scratch state is sized once up
// front (dfsSearch, taken from a pool with its buffers): the per-depth
// frontier rows (the symmetry breaking too: there is no per-node set of
// tried classes), host state over densely renumbered hosts and the rollback
// saves, so the search allocates only when it improves on the incumbent
// plan. A node costs the frontier tasks and senders it branches on, not a
// scan of every task. A non-nil lpt is the caller's copy of the baseline
// (the ensemble has built and evaluated it by the time it searches) and
// spares recomputing it. It also returns the nodes it visited: zero when
// the LPT seed is proven and nothing is searched.
func dfsPruning(tasks []Task, maxNodes int, stop func() bool, lpt *lptSeed) (Plan, int) {
	if len(tasks) == 0 {
		return Plan{Sender: map[int]int{}}, 0
	}
	// Seed with the LPT plan so pruning has a baseline.
	if lpt == nil {
		lpt = &lptSeed{plan: LoadBalanceOnly(tasks), bound: provenBound(tasks)}
		lpt.span, lpt.err = Makespan(tasks, lpt.plan)
	}
	if lpt.err != nil {
		panic(lpt.err) // unreachable: LoadBalanceOnly plans are valid
	}
	if lpt.span <= lpt.bound {
		return lpt.plan, 0
	}
	s := searches.Get().(*dfsSearch)
	defer searches.Put(s)
	s.reset(tasks, maxNodes, stop, lpt.bound)
	s.best, s.bestSpan = lpt.plan, lpt.span
	s.visit(0, 0)
	p, nodes := s.best, s.nodes
	s.release()
	return p, nodes
}

// targetNodes is the target search's node budget. It is a constant, not an
// option, so that plans stay a pure function of the options they are
// cached under. The largest target search the benchmark populations run
// visits about three quarters of it.
const targetNodes = 8192

// targetSlack widens the floor for the serial-load prune (see
// dfsSearch.overloads), which adds a load's remaining durations in another
// order than a schedule chains them: far more than that rounding, and far
// less than any gap between schedules worth telling apart.
const targetSlack = 1e-9

// searches hold searches between calls, with their buffers and dominance
// tables, so that a search allocates little more than the plans it adopts.
var searches = sync.Pool{New: func() any { return new(dfsSearch) }}

// targetSearch looks for a schedule whose makespan is at most bound (the
// tasks' provenBound): the DFS in target mode, under a budget of maxNodes
// nodes. It polls no stop function: its budget is a few StopStride slices
// at most (targetNodes). It runs the improvement search's visit over the
// tasks taken longest first (stably: equal durations keep their order), so
// that the schedule it returns, the first at the floor it reaches, launches
// long tasks early, as LoadBalanceOnly and GreedyRandomized do. It accepts
// only a schedule that meets the floor, so it prunes at the floor rather
// than at an incumbent: a task that would finish past it, a host side whose
// free time plus its serial load still to run passes it (see overloads),
// and, with table, a node dominated by one already explored
// (dominanceTable). It has no cap on the task count: the floor, not the
// size, bounds its work. found is false when the budget ran out or no
// schedule meets the floor; nodes is what it visited.
func targetSearch(tasks []Task, bound float64, maxNodes int, table bool) (p Plan, found bool, nodes int) {
	if len(tasks) == 0 {
		return Plan{Sender: map[int]int{}}, true, 0
	}
	s := searches.Get().(*dfsSearch)
	defer searches.Put(s)
	s.longest = append(s.longest[:0], tasks...)
	slices.SortStableFunc(s.longest, longerFirst)
	s.reset(s.longest, maxNodes, nil, bound)
	s.startTarget(table)
	s.visit(0, 0)
	p, found, nodes = s.best, s.bestSpan <= bound, s.nodes
	s.release()
	return p, found, nodes
}

// longerFirst orders tasks by descending duration.
func longerFirst(a, b Task) int { return cmp.Compare(b.Duration, a.Duration) }

// dfsSearch is one search's state. A node at depth d reads its own rows and
// writes only depth d+1's, so its state survives its descendants' recursion.
type dfsSearch struct {
	tasks []Task
	slots []taskSlots
	next  []frontierBit // see symmetryFrontier
	// rows[d*words:(d+1)*words] is the frontier of the node active at depth
	// d: the tasks it branches on, one per symmetry class, in index order.
	words int
	rows  []uint64
	// order[d] is the task launched at depth d and pick[i] the index into
	// tasks[i].SenderHosts it sends from; both are resolved to IDs and hosts
	// only when a complete schedule is copied out.
	order, pick []int
	// A host's send and receive sides are separate resources (full duplex);
	// free holds both, send sides first: a node's whole host state.
	free, sendFree, recvFree []float64
	// recvSave[d*maxRecv:] holds the pre-commit receiver frees of the branch
	// taken at depth d.
	recvSave []float64
	maxRecv  int

	maxNodes int
	stop     func() bool
	nodes    int
	// done ends the search: budget spent, stop fired, or optimum proven.
	done bool

	best            Plan
	bestSpan, bound float64

	// target is the target mode (see targetSearch); the fields after it
	// serve it alone. longest holds its tasks, longest first. forced[i] is
	// the host task i must send from, or -1. sendLoad and recvLoad are the
	// durations still to run of each host side's serial load: a receive
	// side's every task, a send side's forced ones. loadSave[d*(1+maxRecv):]
	// holds the loads the branch taken at depth d changed, its sender's
	// first. slack is the floor the loads are held to. useTable turns the
	// dominance table on.
	target             bool
	longest            []Task
	forced             []int
	sendLoad, recvLoad []float64
	loadSave           []float64
	slack              float64
	useTable           bool
	table              dominanceTable

	buffers slotBuffers
}

// reset sizes the search for tasks, reusing the memory a pooled search
// already holds, and leaves it in improvement mode with no incumbent.
func (s *dfsSearch) reset(tasks []Task, maxNodes int, stop func() bool, bound float64) {
	n := len(tasks)
	s.tasks = tasks
	var hosts int
	s.slots, hosts = s.buffers.fill(tasks)
	s.words = (n + 63) / 64
	s.rows = resized(s.rows, (n+1)*s.words)
	s.next = resized(s.next, n)
	symmetryFrontier(tasks, s.rows[:s.words], s.next)
	s.maxRecv = 0
	for i := range tasks {
		s.maxRecv = max(s.maxRecv, len(tasks[i].ReceiverHosts))
	}
	s.order, s.pick = resized(s.order, n), resized(s.pick, n)
	s.free = resized(s.free, 2*hosts)
	s.sendFree, s.recvFree = s.free[:hosts], s.free[hosts:]
	s.recvSave = resized(s.recvSave, n*s.maxRecv)
	s.maxNodes, s.stop, s.nodes, s.done = max(maxNodes, 1), stop, 0, false
	s.best, s.bestSpan, s.bound = Plan{}, math.Inf(1), bound
	s.target, s.useTable = false, false
}

// release drops what the search holds of its caller's — the tasks, stop and
// the plan adopted — so that the pool keeps only buffers.
func (s *dfsSearch) release() {
	s.tasks, s.stop, s.best = nil, nil, Plan{}
	clear(s.longest)
}

// startTarget puts a reset search in target mode: it accepts a complete
// schedule only at span <= bound, with the load prune and, if table, the
// dominance table.
func (s *dfsSearch) startTarget(table bool) {
	s.target, s.useTable = true, table
	// A schedule is adopted only below bestSpan: just above the bound, so
	// one that meets it is adopted and ends the search.
	s.bestSpan = math.Nextafter(s.bound, math.Inf(1))
	s.slack = s.bound * (1 + targetSlack)
	hosts := len(s.sendFree)
	s.forced = resized(s.forced, len(s.tasks))
	s.sendLoad, s.recvLoad = resized(s.sendLoad, hosts), resized(s.recvLoad, hosts)
	s.loadSave = resized(s.loadSave, len(s.tasks)*(1+s.maxRecv))
	for i := range s.tasks {
		d, sl := s.tasks[i].Duration, &s.slots[i]
		s.forced[i] = sl.senders[0]
		for _, snd := range sl.senders[1:] {
			if snd != sl.senders[0] {
				s.forced[i] = -1
			}
		}
		if s.forced[i] >= 0 {
			s.sendLoad[s.forced[i]] += d
		}
		for j, r := range sl.receivers {
			if !slices.Contains(sl.receivers[:j], r) {
				s.recvLoad[r] += d
			}
		}
	}
	if table {
		s.table.reset(s.words, len(s.free))
	}
}

// overloads reports, in target mode, whether launching task i from host snd
// to finish at finish leaves a side it occupies unable to run the rest of
// its serial load by the floor: the side comes free at finish, and the
// load's other tasks still need their durations after that.
//
//alpacomm:hotpath
func (s *dfsSearch) overloads(i, snd int, finish float64) bool {
	d, left := s.tasks[i].Duration, s.sendLoad[snd]
	if s.forced[i] >= 0 {
		left -= d
	}
	if finish+left > s.slack {
		return true
	}
	for _, r := range s.slots[i].receivers {
		if finish+(s.recvLoad[r]-d) > s.slack {
			return true
		}
	}
	return false
}

// visit counts a node and, unless that ends the search or the node cannot
// beat the incumbent, adopts its schedule if complete or else branches on
// every frontier task and candidate sender that still could. In target mode
// a node the dominance table prunes is counted and left.
//
//alpacomm:hotpath
func (s *dfsSearch) visit(depth int, span float64) {
	s.nodes++
	if s.nodes > s.maxNodes {
		s.done = true
		return
	}
	if s.stop != nil && s.nodes%StopStride == 0 && s.stop() {
		s.done = true
		return
	}
	if span >= s.bestSpan {
		return
	}
	if depth == len(s.tasks) {
		s.adopt(span)
		return
	}
	row := s.rows[depth*s.words : (depth+1)*s.words]
	if s.useTable && depth > 0 && s.table.prunes(row, s.free) {
		return
	}
	child := s.rows[(depth+1)*s.words : (depth+2)*s.words]
	copy(child, row)
	save := s.recvSave[depth*s.maxRecv : (depth+1)*s.maxRecv]
	sendFree, recvFree := s.sendFree, s.recvFree
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			i, self := w*64+bits.TrailingZeros64(word), word&-word
			d, receivers := s.tasks[i].Duration, s.slots[i].receivers
			for k, snd := range s.slots[i].senders {
				start := sendFree[snd]
				for _, r := range receivers {
					if recvFree[r] > start {
						start = recvFree[r]
					}
				}
				finish := start + d
				newSpan := span
				if finish > newSpan {
					newSpan = finish
				}
				if newSpan >= s.bestSpan || s.target && s.overloads(i, snd, finish) {
					continue
				}
				// Commit: task i leaves the frontier, the next member of its
				// class joins it.
				s.order[depth], s.pick[i] = i, k
				nx := s.next[i]
				child[w] &^= self
				child[nx.word] |= nx.mask
				oldSend := sendFree[snd]
				oldRecv := save[:len(receivers)]
				sendFree[snd] = finish
				for j, r := range receivers {
					oldRecv[j] = recvFree[r]
					recvFree[r] = finish
				}
				if s.target {
					s.takeLoads(depth, i, snd)
				}
				s.visit(depth+1, newSpan)
				if s.target {
					s.restoreLoads(depth, i, snd)
				}
				// Roll back, last write first: a task may list a receiver
				// twice, and only its first save holds the pre-commit value.
				sendFree[snd] = oldSend
				for j := len(receivers) - 1; j >= 0; j-- {
					recvFree[receivers[j]] = oldRecv[j]
				}
				child[nx.word], child[w] = row[nx.word], row[w]
				if s.done {
					return
				}
			}
		}
	}
}

// takeLoads takes task i, launched at depth from host snd, off the serial
// loads it is part of: its forced sender's and its receivers', each once.
//
//alpacomm:hotpath
func (s *dfsSearch) takeLoads(depth, i, snd int) {
	d, receivers := s.tasks[i].Duration, s.slots[i].receivers
	save := s.loadSave[depth*(1+s.maxRecv):]
	save[0] = s.sendLoad[snd]
	if s.forced[i] >= 0 {
		s.sendLoad[snd] -= d
	}
	for j, r := range receivers {
		save[1+j] = s.recvLoad[r]
		if !slices.Contains(receivers[:j], r) {
			s.recvLoad[r] -= d
		}
	}
}

// restoreLoads undoes takeLoads, last write first.
//
//alpacomm:hotpath
func (s *dfsSearch) restoreLoads(depth, i, snd int) {
	receivers := s.slots[i].receivers
	save := s.loadSave[depth*(1+s.maxRecv):]
	for j := len(receivers) - 1; j >= 0; j-- {
		s.recvLoad[receivers[j]] = save[1+j]
	}
	s.sendLoad[snd] = save[0]
}

// adopt makes the complete schedule on the stack the incumbent and ends the
// search if it meets the bound.
func (s *dfsSearch) adopt(span float64) {
	n := len(s.tasks)
	cp := Plan{Sender: make(map[int]int, n), Order: make([]int, n)}
	for d, i := range s.order {
		cp.Order[d] = s.tasks[i].ID
	}
	for i := range s.tasks {
		cp.Sender[s.tasks[i].ID] = s.tasks[i].SenderHosts[s.pick[i]]
	}
	s.best, s.bestSpan = cp, span
	s.done = span <= s.bound
}

// The dominance table's shape: tableBuckets buckets of tableWays entries.
const (
	tableWays       = 4
	tableBucketBits = 10
	tableBuckets    = 1 << tableBucketBits
)

// dominanceTable remembers target-mode nodes by their frontier row, which
// names exactly the tasks scheduled (class members go in index order), and
// their host state. A node whose row a remembered node shares, with no host
// side coming free earlier than there, cannot reach the floor: list
// scheduling's finish times are monotone in its free times, so whatever the
// node could go on to do the remembered one could do no later — and the
// remembered node's subtree was explored in full before any other node of
// its row was visited, without reaching the floor, or the search would have
// ended. (Its span, the latest free time, is dominated with the rest.) The
// table is lossy: a bucket holds tableWays nodes, so an entry lost only
// means less pruning. Entries are stamped with the search that wrote them,
// so a new search clears nothing but the victim counters.
type dominanceTable struct {
	rows   []uint64  // entry e's row at e*words
	frees  []float64 // entry e's host state at e*stride
	stamp  []uint32
	search uint32
	victim [tableBuckets]uint8
	words  int
	stride int
}

// reset empties the table for rows of words words and host states of
// stride free times.
func (t *dominanceTable) reset(words, stride int) {
	const entries = tableBuckets * tableWays
	if len(t.stamp) < entries {
		t.stamp = make([]uint32, entries)
	}
	if t.search++; t.search == 0 {
		clear(t.stamp)
		t.search = 1
	}
	if cap(t.rows) < entries*words {
		t.rows = make([]uint64, entries*words)
	}
	if cap(t.frees) < entries*stride {
		t.frees = make([]float64, entries*stride)
	}
	t.rows, t.frees = t.rows[:entries*words], t.frees[:entries*stride]
	t.words, t.stride = words, stride
	// The victim counters decide which entries survive, and so how far a
	// search gets in its budget: they start over with each search.
	clear(t.victim[:])
}

// prunes reports whether a remembered node of the same row dominates free,
// a host state: no side of it comes free later than free's. Otherwise it
// remembers the node — in place of one of its row it dominates, else in an
// unused entry of the bucket, else in the bucket's next victim.
//
//alpacomm:hotpath
func (t *dominanceTable) prunes(row []uint64, free []float64) bool {
	h := uint64(0)
	for _, w := range row {
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	bucket := int(h >> (64 - tableBucketBits))
	into := -1
	for e := bucket * tableWays; e < (bucket+1)*tableWays; e++ {
		if t.stamp[e] != t.search {
			if into < 0 {
				into = e
			}
			continue
		}
		if !slices.Equal(t.rows[e*t.words:(e+1)*t.words], row) {
			continue
		}
		kept := t.frees[e*t.stride : (e+1)*t.stride]
		if noLater(kept, free) {
			return true
		}
		if noLater(free, kept) && (into < 0 || t.stamp[into] != t.search) {
			into = e
		}
	}
	if into < 0 {
		into = bucket*tableWays + int(t.victim[bucket])
		t.victim[bucket] = (t.victim[bucket] + 1) % tableWays
	}
	copy(t.rows[into*t.words:], row)
	copy(t.frees[into*t.stride:(into+1)*t.stride], free)
	t.stamp[into] = t.search
	return false
}

// noLater reports whether every free time of a is at or before b's.
func noLater(a, b []float64) bool {
	for k, x := range a {
		if !(x <= b[k]) {
			return false
		}
	}
	return true
}

// GreedyRandomized is the paper's scalable algorithm: repeatedly select a
// maximal set of mutually non-conflicting tasks (found as the best of
// `trials` random orderings), launch the set, and recurse on the rest.
// Senders within a batch are chosen to avoid conflicts and balance load,
// ties going to the lower host id. Hosts are renumbered into dense slots
// once: committed loads are a slice over them, and a host side taken in a
// trial is stamped with the trial's number, so a new trial clears nothing.
// Every buffer is allocated up front and reused across trials and rounds, so
// one call allocates the same objects whatever its trial count.
func GreedyRandomized(tasks []Task, trials int, rng *rand.Rand) Plan {
	p, _ := greedyRandomized(tasks, trials, rng)
	return p
}

// greedyRandomized is GreedyRandomized, which also returns the orderings it
// tried: trials per batch.
//
//alpacomm:hotpath
func greedyRandomized(tasks []Task, trials int, rng *rand.Rand) (p Plan, tried int) {
	if trials < 1 {
		trials = 1
	}
	n := len(tasks)
	var buffers slotBuffers
	slots, slotCount := buffers.fill(tasks)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	load := make([]float64, slotCount)
	// usedSend[h] == stamp while host h's send side is taken in the current
	// trial, usedRecv[h] its receive side; stamp counts trials across rounds.
	used := make([]int, 2*slotCount)
	usedSend, usedRecv := used[:slotCount], used[slotCount:]
	stamp := 0
	p = Plan{Sender: make(map[int]int, n), Order: make([]int, 0, n)}
	type pick struct {
		taskIdx int
		sender  int // host id
		slot    int // its dense slot
	}
	perm := make([]int, 0, n)
	batch := make([]pick, 0, n)
	bestBatch := make([]pick, 0, n)
	inBatch := make([]bool, n)
	rest := make([]int, 0, n)
	for len(remaining) > 0 {
		bestBatch = bestBatch[:0]
		bestHosts := -1
		for trial := 0; trial < trials; trial++ {
			stamp++
			perm = append(perm[:0], remaining...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] }) //alpacomm:allow hotalloc the swap does not outlive Shuffle, so it stays on the stack
			batch = batch[:0]
			hosts := 0
			for _, ti := range perm {
				sl := &slots[ti]
				conflict := false
				for _, r := range sl.receivers {
					if usedRecv[r] == stamp {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				// Pick a free candidate sender with the lightest load.
				s, slot, sLoad := -1, -1, math.Inf(1)
				for k, c := range sl.senders {
					if usedSend[c] == stamp {
						continue
					}
					if h := tasks[ti].SenderHosts[k]; load[c] < sLoad || (load[c] == sLoad && h < s) {
						s, slot, sLoad = h, c, load[c]
					}
				}
				if s < 0 {
					continue
				}
				usedSend[slot] = stamp
				for _, r := range sl.receivers {
					usedRecv[r] = stamp
				}
				batch = append(batch, pick{ti, s, slot})
				hosts += 1 + len(sl.receivers)
			}
			if hosts > bestHosts {
				bestHosts = hosts
				bestBatch = append(bestBatch[:0], batch...)
			}
		}
		// Launch the batch, longest tasks first so stragglers start early.
		slices.SortStableFunc(bestBatch, func(a, b pick) int { //alpacomm:allow hotalloc the comparator does not outlive SortStableFunc, so it stays on the stack
			switch da, db := tasks[a.taskIdx].Duration, tasks[b.taskIdx].Duration; {
			case da > db:
				return -1
			case db > da:
				return 1
			}
			return 0
		})
		for _, b := range bestBatch {
			t := &tasks[b.taskIdx]
			p.Sender[t.ID] = b.sender
			p.Order = append(p.Order, t.ID)
			load[b.slot] += t.Duration
			inBatch[b.taskIdx] = true
		}
		rest = rest[:0]
		for _, ti := range remaining {
			if !inBatch[ti] {
				rest = append(rest, ti)
			}
		}
		remaining, rest = rest, remaining
	}
	return p, stamp
}

// EnsembleNodesStop is AlpaComm's production configuration ("we run both
// algorithms and choose the better result", §5.3.1): the plan with the
// smallest makespan among Naive, LoadBalanceOnly, the witness, the target
// search, GreedyRandomized and (for small problems) the DFS under a
// deterministic node budget, ties going to the earlier of them —
// ClosedForm, then Search on what it left. The candidates are built one at
// a time and the rest are skipped once one is proven optimal, so rng is
// drawn from only when none of the first four meets the bound. stop (when
// non-nil) is polled every StopStride visited states, and a true return
// makes the DFS yield its incumbent early; the closed-form components and
// the target search (at most targetNodes nodes) are never interrupted, and
// a stop that never fires does not change the plan.
func EnsembleNodesStop(tasks []Task, dfsNodes, trials int, rng *rand.Rand, stop func() bool) Plan {
	in := ClosedForm(tasks)
	return in.Search(dfsNodes, trials, rng, stop)
}

// ClosedForm is the ensemble's first step: Naive, LoadBalanceOnly and the
// witness, each offered to one incumbent only while the ones before it left
// the optimum unproven — microseconds, no rng draw, no search. The witness
// exists when the floor is the least chain of a load of unequal durations
// (see provenBound): it launches that load's tasks first, in an order whose
// chain is that least one — the order the floor's own DP reached it by —
// then every other task in LPT order, all from LPT's senders. Where nothing
// but that load's order kept LPT off the floor, the witness meets it. Search
// on the same incumbent is the second step, and has nothing to do once
// Proven. Naive stands — even if the tasks admit no valid plan — until a
// valid candidate beats it.
func ClosedForm(tasks []Task) Incumbent {
	naive := Naive(tasks)
	bound, load := provenFloor(tasks)
	in := Incumbent{tasks: tasks, bound: bound, best: naive, span: math.Inf(1), report: Report{Exit: ExitNaive}}
	if !in.offer(naive, ExitNaive) {
		// The DFS starts from LPT too, and from the same bound: keep both.
		in.lpt = lptSeed{plan: LoadBalanceOnly(tasks), bound: in.bound}
		in.lpt.span, in.lpt.err = Makespan(tasks, in.lpt.plan)
		_ = in.offerEvaluated(in.lpt.plan, in.lpt.span, in.lpt.err, ExitLPT) ||
			load.tasks == 0 || in.offerWitness(&load)
	}
	return in
}

// offerWitness offers the witness built on load (see ClosedForm) and
// reports whether the incumbent is proven. The witness shares LPT's sender
// map, and its order is laid out on the stack up to 64 tasks and copied to
// the heap only if the incumbent adopts it.
func (in *Incumbent) offerWitness(load *serialLoad) (proven bool) {
	var buf [64]int
	order := buf[:0]
	if len(in.tasks) > len(buf) {
		order = make([]int, 0, len(in.tasks))
	}
	order, ok := witnessOrder(in.tasks, load, in.lpt.plan.Order, order)
	if !ok {
		return in.proven
	}
	span, err := Makespan(in.tasks, Plan{Sender: in.lpt.plan.Sender, Order: order})
	if err != nil || !(span < in.span) {
		return in.proven
	}
	return in.offerEvaluated(Plan{Sender: in.lpt.plan.Sender, Order: slices.Clone(order)}, span, nil, ExitWitness)
}

// Exit names the ensemble candidate whose plan an Incumbent holds.
type Exit uint8

// The candidates, in the order the ensemble offers them. ExitNone is the
// zero value: no ensemble chose the plan (another scheduler did, or it was
// filled from elsewhere).
const (
	ExitNone Exit = iota
	ExitNaive
	ExitLPT
	ExitWitness
	ExitTarget
	ExitGreedy
	ExitDFS
	// NumExits counts the values above.
	NumExits
)

var exitNames = [NumExits]string{"none", "naive", "lpt", "witness", "target", "greedy", "dfs"}

func (e Exit) String() string {
	if e < NumExits {
		return exitNames[e]
	}
	return fmt.Sprintf("Exit(%d)", uint8(e))
}

// Report is how an ensemble ended, in counts: which candidate's plan it
// holds, whether that plan meets the floor, and the work the search spent.
// It reads no clock, so it is a pure function of the tasks and the options,
// like the plan.
type Report struct {
	Exit Exit
	// Proven reports that Span meets Floor (provenBound): no plan is better.
	Proven      bool
	Floor, Span float64
	// TargetNodes and DFSNodes are the nodes the target search and the
	// improvement search visited, and GreedyTrials the random orderings
	// GreedyRandomized tried over all its batches; each is zero when the
	// ensemble ended before it.
	TargetNodes, DFSNodes, GreedyTrials int
}

// Incumbent is the best candidate offered so far — Naive, LoadBalanceOnly
// and the witness from ClosedForm, then Search's — and whether it is proven
// optimal: whether its makespan meets provenBound, the exact least chain of
// the heaviest serial load (or, past the cap on a load's states, its shrunk
// sum).
type Incumbent struct {
	tasks  []Task
	bound  float64 // provenBound(tasks)
	best   Plan
	span   float64
	proven bool
	lpt    lptSeed // ClosedForm's, when Naive was not proven
	// report holds the exit and the search's counts; Report fills in the rest.
	report Report
}

// Proven reports whether the incumbent meets provenBound: nothing offered
// later can replace it, and Search returns it as it is.
func (in *Incumbent) Proven() bool { return in.proven }

// Report returns how the ensemble has ended so far.
func (in *Incumbent) Report() Report {
	r := in.report
	r.Proven, r.Floor, r.Span = in.proven, in.bound, in.span
	return r
}

// Search is the ensemble's second step: the target search (targetSearch,
// under targetNodes nodes), GreedyRandomized and the improvement DFS, under
// a budget of dfsNodes nodes (at least one), offered in that order, and it
// returns the incumbent. Each is built only if everything before it left
// the optimum unproven — building them all and ranking afterwards returns
// the same plan (see offer), at the cost of the trials, the search and the
// rng draws behind a schedule that could not lose. The target search finds
// a schedule at the floor or nothing, so where it finds one, nothing after
// it runs.
func (in *Incumbent) Search(dfsNodes, trials int, rng *rand.Rand, stop func() bool) Plan {
	return in.search(targetNodes, func(t []Task, lpt lptSeed) (Plan, int) { return dfsPruning(t, dfsNodes, stop, &lpt) }, trials, rng)
}

// search is Search with the target search's budget given and the DFS
// supplied by the caller.
func (in *Incumbent) search(targetBudget int, dfs func([]Task, lptSeed) (Plan, int), trials int, rng *rand.Rand) Plan {
	if in.proven {
		return in.best
	}
	p, found, nodes := targetSearch(in.tasks, in.bound, targetBudget, true)
	in.report.TargetNodes = nodes
	if found && in.offer(p, ExitTarget) {
		return in.best
	}
	greedy, tried := greedyRandomized(in.tasks, trials, rng)
	in.report.GreedyTrials = tried
	// DFS explodes combinatorially; the paper reports it fails beyond ~20
	// unit tasks, so only attempt it below that scale.
	if !in.offer(greedy, ExitGreedy) && len(in.tasks) <= 20 {
		p, nodes := dfs(in.tasks, in.lpt)
		in.report.DFSNodes = nodes
		in.offer(p, ExitDFS)
	}
	return in.best
}

// offer adopts c when its list-scheduled makespan is strictly smaller than
// the incumbent's — a tie keeps the earlier candidate, an invalid c is
// skipped — and reports whether the incumbent now meets provenBound. No
// valid plan evaluates below that bound, so once it is met no later
// candidate can be strictly smaller: offering the rest would change nothing.
// exit names the candidate c is.
func (in *Incumbent) offer(c Plan, exit Exit) (proven bool) {
	span, err := Makespan(in.tasks, c)
	return in.offerEvaluated(c, span, err, exit)
}

// offerEvaluated is offer for a candidate whose makespan evaluation the
// caller holds.
func (in *Incumbent) offerEvaluated(c Plan, span float64, err error, exit Exit) (proven bool) {
	if err == nil && span < in.span {
		in.best, in.span = c, span
		in.proven = span <= in.bound
		in.report.Exit = exit
	}
	return in.proven
}
