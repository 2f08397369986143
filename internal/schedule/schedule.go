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
// EnsembleNodesStop returns the best of Naive, LoadBalanceOnly,
// GreedyRandomized and the DFS, which is AlpaComm's configuration ("we run
// both algorithms and choose the better result", §5.3.1), in two steps:
// ClosedForm (Naive, then LoadBalanceOnly) and, only if that left the
// optimum unproven, Search. GreedyEnsemble is its search-free counterpart
// (Naive, LoadBalanceOnly, GreedyLoad) for a server defending its latency.
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
// bit.
package schedule

import (
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
// with chain, as the least sum any launch order reaches (see provenBound).
// Hosts are matched by scanning: a problem names a handful of them, which a
// scan beats a map on, and the loads of up to 16 fit on the stack.
func heaviestLoad(tasks []Task, chain bool) float64 {
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
	var heaviest float64
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
			if b := leastChain(tasks, l); b > heaviest {
				heaviest = b
			}
		}
	}
	return heaviest
}

// chainStates caps the states leastChain works through for one load: the
// largest load the benchmark populations produce has 1728.
const chainStates = 4096

// chainTables hands leastChain its table, so that a floor allocates nothing
// once every concurrent caller has one.
var chainTables = sync.Pool{New: func() any { return new([chainStates]float64) }}

// leastChain returns the least value the chain fl(fl(d1+d2)+d3)... of the
// load's durations takes over all their orders. fl(x+d) is monotone in x, so
// the least chain of a multiset of durations ends with some duration added
// to the least chain of the rest: over v_k, the distinct durations, and c,
// how many of each have been added, V(c) = min over k with c_k > 0 of
// fl(V(c-e_k)+v_k), from V(0) = 0. The counts span Π(m_k+1) states for m_k
// copies of v_k; a load with more than chainStates falls back to its shrunk
// sum.
func leastChain(tasks []Task, l *serialLoad) float64 {
	// Twelve distinct durations already make 2^12 = chainStates states.
	var vals [12]float64
	var copies [12]int
	distinct, states := 0, 1
	for i := range tasks {
		t := &tasks[i]
		if !l.carries(t) {
			continue
		}
		k := 0
		for k < distinct && vals[k] != t.Duration {
			k++
		}
		if k == len(vals) {
			return l.shrunk()
		}
		if k == distinct {
			vals[k] = t.Duration
			distinct++
		}
		states = states / (copies[k] + 1) * (copies[k] + 2)
		copies[k]++
		if states > chainStates {
			return l.shrunk()
		}
	}
	table := chainTables.Get().(*[chainStates]float64)
	defer chainTables.Put(table)
	// State c sits at Σ c_k*stride[k]; count is the state being filled.
	var stride, count [12]int
	stride[0] = 1
	for k := 1; k < distinct; k++ {
		stride[k] = stride[k-1] * (copies[k-1] + 1)
	}
	v := table[:states]
	v[0] = 0
	for c := 1; c < states; c++ {
		for k := 0; ; k++ {
			if count[k] < copies[k] {
				count[k]++
				break
			}
			count[k] = 0
		}
		least := math.Inf(1)
		for k := 0; k < distinct; k++ {
			if count[k] > 0 {
				if x := v[c-stride[k]] + vals[k]; x < least {
					least = x
				}
			}
		}
		v[c] = least
	}
	return v[states-1]
}

// LowerBound returns a makespan lower bound independent of the plan: the
// longest single task, and the heaviest serial load — a receiver host's
// total incoming work, or the total of the tasks that can only be sent from
// one host. It bounds the makespan over the reals; a schedule evaluated in
// floating point can land an ulp under it (see provenBound).
func LowerBound(tasks []Task) float64 {
	return heaviestLoad(tasks, false)
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
	for i := range tasks {
		if !(tasks[i].Duration >= 0) {
			return 0
		}
	}
	lb := heaviestLoad(tasks, true)
	if math.IsInf(lb, 1) {
		return 0
	}
	return lb
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
// greedy: tasks sorted by descending duration, each assigned to the
// candidate sender with the lightest committed load. The order is the
// assignment order (longest first).
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
	load := map[int]float64{}
	p := Plan{Sender: map[int]int{}}
	for _, i := range idx {
		t := tasks[i]
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

// GreedyLoad assigns each task, in input order, to the candidate sender
// with the lowest committed load (ties to the lower host id) — the
// input-order counterpart of LoadBalanceOnly, matching the baseline
// systems' load balancing (§5.1.2). It is cheap enough to run per task
// on the serving hot path.
func GreedyLoad(tasks []Task) Plan {
	load := map[int]float64{}
	p := Plan{Sender: map[int]int{}}
	for _, t := range tasks {
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
// Naive, LoadBalanceOnly and GreedyLoad by list-scheduled makespan, ties
// going to the earlier, each built only while the ones before it are not
// proven optimal (see Incumbent.offer). No DFS, no randomized trials, no RNG
// — O(n log n) and deterministic without a seed. This is the plan quality
// an overloaded server can afford while defending its latency SLO: the
// admission controller's degraded mode plans with it instead of the
// ensemble DFS.
func GreedyEnsemble(tasks []Task) Plan {
	in := ClosedForm(tasks)
	_ = in.proven || in.offer(GreedyLoad(tasks))
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
	return dfsPruning(tasks, maxNodes, stop, nil)
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
// the set bits of one row of ⌈n/64⌉ words. It returns the root's row, and
// per task the bit of the next member of its class (zero for the last),
// which takes its place in the row once it is scheduled.
func symmetryFrontier(tasks []Task) (root []uint64, next []frontierBit) {
	n := len(tasks)
	root = make([]uint64, (n+63)/64)
	next = make([]frontierBit, n)
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
	return root, next
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

// denseSlots renumbers the hosts of a problem once and returns every task's
// slots, all windows of one flat buffer, and the number of hosts.
func denseSlots(tasks []Task) (slots []taskSlots, hosts int) {
	total := 0
	for i := range tasks {
		total += len(tasks[i].SenderHosts) + len(tasks[i].ReceiverHosts)
	}
	buf := make([]int, 0, total)
	slots = make([]taskSlots, len(tasks))
	var index hostIndex
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
	return slots, len(index)
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
// once the incumbent meets provenBound. All scratch state is allocated once
// up front (dfsSearch): the per-depth frontier rows (the symmetry breaking
// too: there is no per-node set of tried classes), host state over densely
// renumbered hosts and the rollback saves, so the search allocates only
// when it improves on the incumbent plan. A node costs the frontier tasks
// and senders it branches on, not a scan of every task. A non-nil lpt is
// the caller's copy of the baseline (the ensemble has built and evaluated
// it by the time it searches) and spares recomputing it.
func dfsPruning(tasks []Task, maxNodes int, stop func() bool, lpt *lptSeed) Plan {
	if len(tasks) == 0 {
		return Plan{Sender: map[int]int{}}
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
		return lpt.plan
	}

	n := len(tasks)
	slots, hosts := denseSlots(tasks)
	root, next := symmetryFrontier(tasks)
	maxRecv := 0
	for i := range tasks {
		maxRecv = max(maxRecv, len(tasks[i].ReceiverHosts))
	}
	free := make([]float64, 2*hosts+n*maxRecv)
	s := &dfsSearch{
		tasks: tasks, slots: slots, next: next,
		words: len(root), rows: make([]uint64, (n+1)*len(root)),
		order: make([]int, n), pick: make([]int, n),
		sendFree: free[:hosts], recvFree: free[hosts : 2*hosts],
		recvSave: free[2*hosts:], maxRecv: maxRecv,
		maxNodes: max(maxNodes, 1), stop: stop,
		best: lpt.plan, bestSpan: lpt.span, bound: lpt.bound,
	}
	copy(s.rows, root)
	s.visit(0, 0)
	return s.best
}

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
	// A host's send and receive sides are separate resources (full duplex).
	sendFree, recvFree []float64
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
}

// visit counts a node and, unless that ends the search or the node cannot
// beat the incumbent, adopts its schedule if complete or else branches on
// every frontier task and candidate sender that still could.
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
				if newSpan >= s.bestSpan {
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
				s.visit(depth+1, newSpan)
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

// GreedyRandomized is the paper's scalable algorithm: repeatedly select a
// maximal set of mutually non-conflicting tasks (found as the best of
// `trials` random orderings), launch the set, and recurse on the rest.
// Senders within a batch are chosen to avoid conflicts and balance load,
// ties going to the lower host id. Hosts are renumbered into dense slots
// once: committed loads are a slice over them, and a host side taken in a
// trial is stamped with the trial's number, so a new trial clears nothing.
// Every buffer is allocated up front and reused across trials and rounds, so
// one call allocates the same objects whatever its trial count.
//
//alpacomm:hotpath
func GreedyRandomized(tasks []Task, trials int, rng *rand.Rand) Plan {
	if trials < 1 {
		trials = 1
	}
	n := len(tasks)
	slots, slotCount := denseSlots(tasks)
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
	p := Plan{Sender: make(map[int]int, n), Order: make([]int, 0, n)}
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
	return p
}

// EnsembleNodesStop is AlpaComm's production configuration ("we run both
// algorithms and choose the better result", §5.3.1): the plan with the
// smallest makespan among Naive, LoadBalanceOnly, GreedyRandomized and (for
// small problems) the DFS under a deterministic node budget, ties going to
// the earlier of them — ClosedForm, then Search on what it left. The
// candidates are built one at a time and the rest are skipped once one is
// proven optimal, so rng is drawn from only when neither Naive nor
// LoadBalanceOnly meets the bound. stop (when non-nil) is polled every
// StopStride visited states, and a true return makes the DFS yield its
// incumbent early; the cheap closed-form components are never interrupted,
// and a stop that never fires does not change the plan.
func EnsembleNodesStop(tasks []Task, dfsNodes, trials int, rng *rand.Rand, stop func() bool) Plan {
	in := ClosedForm(tasks)
	return in.Search(dfsNodes, trials, rng, stop)
}

// ClosedForm is the ensemble's first step: Naive and, if that left the
// optimum unproven, LoadBalanceOnly, offered to one incumbent — microseconds,
// no rng draw, no search. Search on the same incumbent is the second step,
// and has nothing to do once Proven. Naive stands — even if the tasks admit
// no valid plan — until a valid candidate beats it.
func ClosedForm(tasks []Task) Incumbent {
	naive := Naive(tasks)
	in := Incumbent{tasks: tasks, bound: provenBound(tasks), best: naive, span: math.Inf(1)}
	if !in.offer(naive) {
		// The DFS starts from LPT too, and from the same bound: keep both.
		in.lpt = lptSeed{plan: LoadBalanceOnly(tasks), bound: in.bound}
		in.lpt.span, in.lpt.err = Makespan(tasks, in.lpt.plan)
		in.offerEvaluated(in.lpt.plan, in.lpt.span, in.lpt.err)
	}
	return in
}

// Incumbent is the best candidate offered so far, and whether it is proven
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
}

// Proven reports whether the incumbent meets provenBound: nothing offered
// later can replace it, and Search returns it as it is.
func (in *Incumbent) Proven() bool { return in.proven }

// Search is the ensemble's second step: GreedyRandomized and the DFS, under
// a budget of dfsNodes nodes (at least one), offered in that order, and it
// returns the incumbent. Each is built only if everything before it left
// the optimum unproven — building them all and ranking afterwards returns
// the same plan (see offer), at the cost of the trials, the search and the
// rng draws behind a schedule that could not lose.
func (in *Incumbent) Search(dfsNodes, trials int, rng *rand.Rand, stop func() bool) Plan {
	return in.search(func(t []Task, lpt lptSeed) Plan { return dfsPruning(t, dfsNodes, stop, &lpt) }, trials, rng)
}

func (in *Incumbent) search(dfs func([]Task, lptSeed) Plan, trials int, rng *rand.Rand) Plan {
	// DFS explodes combinatorially; the paper reports it fails beyond ~20
	// unit tasks, so only attempt it below that scale.
	_ = in.proven ||
		in.offer(GreedyRandomized(in.tasks, trials, rng)) ||
		(len(in.tasks) <= 20 && in.offer(dfs(in.tasks, in.lpt)))
	return in.best
}

// offer adopts c when its list-scheduled makespan is strictly smaller than
// the incumbent's — a tie keeps the earlier candidate, an invalid c is
// skipped — and reports whether the incumbent now meets provenBound. No
// valid plan evaluates below that bound, so once it is met no later
// candidate can be strictly smaller: offering the rest would change nothing.
func (in *Incumbent) offer(c Plan) (proven bool) {
	span, err := Makespan(in.tasks, c)
	return in.offerEvaluated(c, span, err)
}

// offerEvaluated is offer for a candidate whose makespan evaluation the
// caller holds.
func (in *Incumbent) offerEvaluated(c Plan, span float64, err error) (proven bool) {
	if err == nil && span < in.span {
		in.best, in.span = c, span
		in.proven = span <= in.bound
	}
	return in.proven
}
