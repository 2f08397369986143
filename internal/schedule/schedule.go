// Package schedule solves the paper's §3.2 load-balancing and ordering
// problem (Eq. 1-3): given the unit communication tasks of a cross-mesh
// resharding — each with candidate sender hosts n_i, receiver hosts m_i and
// duration T_i — pick one sender per task and an execution order that
// minimize the completion time of the last task, under the constraint that
// tasks sharing a host never overlap.
//
// Four algorithms are provided, mirroring the paper: Naive (lowest-index
// sender, arbitrary order), LoadBalanceOnly (classic LPT greedy on Eq. 4),
// DFSPruningNodesStop (budgeted exhaustive search), and GreedyRandomized
// (iterative maximal non-conflicting batches). EnsembleNodesStop returns the
// best of them, which is AlpaComm's configuration ("we run both algorithms
// and choose the better result", §5.3.1), in two steps: ClosedForm (Naive,
// then LoadBalanceOnly) and, only if that left the optimum unproven, Search.
//
// The ensemble does not build what cannot win. Every schedule serializes the
// tasks of one receiver host, and the tasks only one host can send, so the
// heaviest such load is a floor under every makespan (LowerBound; provenBound
// is the same floor made safe against floating-point rounding). Candidates
// are built in a fixed order, cheapest first, a later one replaces the
// incumbent only when strictly better, and nothing evaluates below the
// floor — so once a candidate reaches it, the candidates after it (the
// randomized trials and their rng draws, the search) are skipped, and so is
// the rest of a search that reaches it midway. The plan returned is the one
// building and ranking everything would return, bit for bit.
package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
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
// senders from the candidate sets.
func Validate(tasks []Task, p Plan) error {
	if len(p.Order) != len(tasks) {
		return fmt.Errorf("schedule: order has %d entries for %d tasks", len(p.Order), len(tasks))
	}
	byID := make(map[int]*Task, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if _, dup := byID[t.ID]; dup {
			return fmt.Errorf("schedule: duplicate task ID %d", t.ID)
		}
		byID[t.ID] = t
	}
	seen := map[int]bool{}
	for _, id := range p.Order {
		t, ok := byID[id]
		if !ok {
			return fmt.Errorf("schedule: order references unknown task %d", id)
		}
		if seen[id] {
			return fmt.Errorf("schedule: task %d appears twice in order", id)
		}
		seen[id] = true
		s, ok := p.Sender[id]
		if !ok {
			return fmt.Errorf("schedule: no sender chosen for task %d", id)
		}
		found := false
		for _, c := range t.SenderHosts {
			if c == s {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("schedule: sender %d for task %d not among candidates %v", s, id, t.SenderHosts)
		}
	}
	return nil
}

// Makespan evaluates a plan with list scheduling: tasks launch in Order;
// each starts as soon as its sender host and all receiver hosts are free,
// and occupies them for its duration (Eq. 3 exclusivity). Sender-side
// occupancy uses the host's send side and receiver-side occupancy the
// receive side — hosts are full duplex (§3), so a host may send one task
// while receiving another.
func Makespan(tasks []Task, p Plan) (float64, error) {
	if err := Validate(tasks, p); err != nil {
		return 0, err
	}
	byID := make(map[int]*Task, len(tasks))
	for i := range tasks {
		byID[tasks[i].ID] = &tasks[i]
	}
	sendFree := map[int]float64{}
	recvFree := map[int]float64{}
	var makespan float64
	for _, id := range p.Order {
		t := byID[id]
		s := p.Sender[id]
		start := sendFree[s]
		for _, r := range t.ReceiverHosts {
			if recvFree[r] > start {
				start = recvFree[r]
			}
		}
		finish := start + t.Duration
		sendFree[s] = finish
		for _, r := range t.ReceiverHosts {
			recvFree[r] = finish
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
// sender. Either way the durations add up to a floor under every schedule's
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
// must hold whichever they pick. With shrink, a load whose durations are not
// all bit-equal counts for less than its sum (see provenBound). Hosts are
// matched by scanning: a problem names a handful of them, which a scan beats
// a map on, and the loads of up to 16 fit on the stack.
func heaviestLoad(tasks []Task, shrink bool) float64 {
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
	for i := range loads {
		l := &loads[i]
		b := l.sum
		if shrink && !l.uniform {
			b *= 1 - float64(l.tasks)*0x1p-51
		}
		if b > heaviest {
			heaviest = b
		}
	}
	return heaviest
}

// LowerBound returns a makespan lower bound independent of the plan: the
// longest single task, and the heaviest serial load — a receiver host's
// total incoming work, or the total of the tasks that can only be sent from
// one host. It bounds the makespan over the reals; a schedule evaluated in
// floating point can land an ulp under it (see provenBound).
func LowerBound(tasks []Task) float64 {
	return heaviestLoad(tasks, false)
}

// provenBound is LowerBound made sound for the floating-point arithmetic
// Makespan and the DFS perform: no valid plan of the tasks evaluates to a
// makespan below it, so a plan that meets it is optimal and a search that
// only adopts strictly smaller makespans can change nothing.
//
// The tasks of one serial load finish no earlier than the chain
// fl(fl(d1+d2)+d3)... taken in their launch order: each starts at or after
// the time its host's side came free (recvFree[r] for a receiver, sendFree[s]
// for a forced sender), which is at or after its predecessor's finish, and
// fl(a+d) is monotone in a. Tasks that merely chose the same sender only push
// that time later. Which value the chain has depends on the order: with
// durations like 1+k/7 one order can sum an ulp below another, and the DFS
// adopts it. So a load's sum counts as is only when every duration in it is
// bit-equal — then all orders perform the same additions and the task-order
// sum is the chain. Otherwise it is shrunk by more than the rounding its
// additions can accumulate: any order's chain and our own sum are each
// within a factor (1±2^-53)^(k-1) of the real sum, so they differ by less
// than the factor 1-k*2^-51 applied here (its own rounding included). The
// longest single task needs no correction: a task that starts at a >= 0
// finishes at fl(a+d) >= d.
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
// change the answer. The bound is sound for the search's own floating-point
// sums, not merely over the reals — see provenBound for why plain
// LowerBound would not do.
func DFSPruningNodesStop(tasks []Task, maxNodes int, stop func() bool) Plan {
	return dfsPruning(tasks, 0, max(maxNodes, 1), stop, nil)
}

// symmetryClasses assigns each task the index of the first task with
// identical (SenderHosts, ReceiverHosts, Duration). The DFS prunes with
// these classes: exploring two interchangeable tasks at one node explores
// the same subtree twice.
func symmetryClasses(tasks []Task) (classOf []int, classes int) {
	classOf = make([]int, len(tasks))
	for i := range tasks {
		classOf[i] = -1
		for j := 0; j < i; j++ {
			if sameTaskShape(&tasks[i], &tasks[j]) {
				classOf[i] = classOf[j]
				break
			}
		}
		if classOf[i] < 0 {
			classOf[i] = classes
			classes++
		}
	}
	return classOf, classes
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

// lptSeed is what every search starts from — the LPT plan, its makespan and
// provenBound — as a caller that has already computed them hands them over.
type lptSeed struct {
	plan  Plan
	span  float64
	err   error // of the makespan evaluation
	bound float64
}

// dfsPruning runs the search under a wall-clock budget (maxNodes == 0) or a
// node budget (maxNodes > 0; the clock is then ignored), polling stop (when
// non-nil) every StopStride nodes, and ends early once the incumbent meets
// provenBound. All scratch state is allocated once up front: host state is
// two flat slices over densely renumbered hosts, the per-node symmetry set
// is a stamp array over precomputed task classes and the rollback stack is
// one flat per-depth buffer, so the search allocates only when it improves
// on the incumbent plan. A non-nil lpt is the caller's copy of the baseline
// (the ensemble has built and evaluated it by the time it searches) and
// spares recomputing it.
//
//alpacomm:hotpath
func dfsPruning(tasks []Task, budget time.Duration, maxNodes int, stop func() bool, lpt *lptSeed) Plan {
	if len(tasks) == 0 {
		return Plan{Sender: map[int]int{}}
	}
	deadline := time.Now().Add(budget) //alpacomm:nondet-ok wall-clock budget is the documented non-reproducible mode; DFSNodes is the deterministic one

	// Seed with the LPT plan so pruning has a baseline.
	if lpt == nil {
		lpt = &lptSeed{plan: LoadBalanceOnly(tasks), bound: provenBound(tasks)}
		lpt.span, lpt.err = Makespan(tasks, lpt.plan)
	}
	if lpt.err != nil {
		panic(lpt.err) // unreachable: LoadBalanceOnly plans are valid
	}
	best, bestSpan, bound := lpt.plan, lpt.span, lpt.bound
	if bestSpan <= bound {
		return best
	}

	n := len(tasks)
	used := make([]bool, n)
	order := make([]int, 0, n)
	sender := make([]int, n) // sender[i] is task i's committed sender host
	// hostsOf[hostOff[i]:hostOff[i+1]] are task i's hosts renumbered, its
	// candidate senders first and then its receivers, each in task order.
	var hosts hostIndex
	hostOff := make([]int, n+1)
	maxRecv := 0
	for i := range tasks {
		hostOff[i+1] = hostOff[i] + len(tasks[i].SenderHosts) + len(tasks[i].ReceiverHosts)
		if len(tasks[i].ReceiverHosts) > maxRecv {
			maxRecv = len(tasks[i].ReceiverHosts)
		}
	}
	hostsOf := make([]int, 0, hostOff[n])
	for i := range tasks {
		for _, h := range tasks[i].SenderHosts {
			hostsOf = append(hostsOf, hosts.dense(h))
		}
		for _, h := range tasks[i].ReceiverHosts {
			hostsOf = append(hostsOf, hosts.dense(h))
		}
	}
	// A host's send and receive sides are separate resources (full duplex).
	free := make([]float64, 2*len(hosts))
	sendFree, recvFree := free[:len(hosts)], free[len(hosts):]
	classOf, classes := symmetryClasses(tasks)
	// triedStamp[depth*classes+class] marks classes already tried at the
	// node currently active at that depth. Rows are per-depth so a node's
	// marks survive its descendants' recursion (deeper nodes write to
	// deeper rows), and stamping with the node's unique visit number makes
	// re-entering a depth reset its row for free.
	triedStamp := make([]int, n*classes)
	// recvSave[depth*maxRecv:] holds the pre-commit receiver frees of the
	// branch taken at that depth.
	recvSave := make([]float64, n*maxRecv)

	// done ends the search: budget spent, stop fired, or optimum proven.
	var done bool
	checkCount := 0

	var dfs func(depth int, span float64)
	dfs = func(depth int, span float64) { //alpacomm:allow hotalloc recursive search closure, allocated once per search not per node
		if done {
			return
		}
		checkCount++
		if maxNodes > 0 {
			if checkCount > maxNodes {
				done = true
				return
			}
		} else if checkCount%1024 == 0 && time.Now().After(deadline) { //alpacomm:nondet-ok same opt-in wall-clock mode as the deadline above
			done = true
			return
		}
		if stop != nil && checkCount%StopStride == 0 && stop() {
			done = true
			return
		}
		if span >= bestSpan {
			return
		}
		if depth == n {
			bestSpan = span
			cp := Plan{Sender: make(map[int]int, n), Order: append([]int(nil), order...)}
			for i := 0; i < n; i++ {
				cp.Sender[tasks[i].ID] = sender[i]
			}
			best = cp
			done = bestSpan <= bound
			return
		}
		// Symmetry breaking: among unscheduled tasks with identical
		// (senders, receivers, duration), try only the first.
		stamp := checkCount
		tried := triedStamp[depth*classes : (depth+1)*classes]
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			t := &tasks[i]
			if tried[classOf[i]] == stamp {
				continue
			}
			tried[classOf[i]] = stamp
			senders := hostsOf[hostOff[i] : hostOff[i]+len(t.SenderHosts)]
			receivers := hostsOf[hostOff[i]+len(t.SenderHosts) : hostOff[i+1]]
			for k, s := range senders {
				start := sendFree[s]
				for _, r := range receivers {
					if recvFree[r] > start {
						start = recvFree[r]
					}
				}
				finish := start + t.Duration
				newSpan := span
				if finish > newSpan {
					newSpan = finish
				}
				if newSpan >= bestSpan {
					continue
				}
				// Commit.
				used[i] = true
				order = append(order, t.ID)
				sender[i] = t.SenderHosts[k]
				oldSend := sendFree[s]
				oldRecv := recvSave[depth*maxRecv : depth*maxRecv+len(receivers)]
				sendFree[s] = finish
				for j, r := range receivers {
					oldRecv[j] = recvFree[r]
					recvFree[r] = finish
				}
				dfs(depth+1, newSpan)
				// Roll back, last write first: a task may list a receiver
				// twice, and only its first save holds the pre-commit value.
				sendFree[s] = oldSend
				for j := len(receivers) - 1; j >= 0; j-- {
					recvFree[receivers[j]] = oldRecv[j]
				}
				order = order[:len(order)-1]
				used[i] = false
				if done {
					return
				}
			}
		}
	}
	dfs(0, 0)
	return best
}

// GreedyRandomized is the paper's scalable algorithm: repeatedly select a
// maximal set of mutually non-conflicting tasks (found as the best of
// `trials` random orderings), launch the set, and recurse on the rest.
// Senders within a batch are chosen to avoid conflicts and balance load.
// Scratch buffers are reused across trials and rounds, so one call
// allocates a fixed handful of objects regardless of trial count.
func GreedyRandomized(tasks []Task, trials int, rng *rand.Rand) Plan {
	if trials < 1 {
		trials = 1
	}
	remaining := make([]int, len(tasks))
	for i := range remaining {
		remaining[i] = i
	}
	load := map[int]float64{}
	p := Plan{Sender: map[int]int{}}
	type pick struct {
		taskIdx int
		sender  int
	}
	// Reused across trials and rounds; every per-trial structure is reset
	// by clearing, not reallocating.
	perm := make([]int, 0, len(tasks))
	var batch, bestBatch []pick
	usedSend := map[int]bool{}
	usedRecv := map[int]bool{}
	inBatch := make([]bool, len(tasks))
	rest := make([]int, 0, len(tasks))
	for len(remaining) > 0 {
		bestBatch = bestBatch[:0]
		bestHosts := -1
		for trial := 0; trial < trials; trial++ {
			perm = append(perm[:0], remaining...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			clear(usedSend)
			clear(usedRecv)
			batch = batch[:0]
			hosts := 0
			for _, ti := range perm {
				t := &tasks[ti]
				conflict := false
				for _, r := range t.ReceiverHosts {
					if usedRecv[r] {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				// Pick a free candidate sender with the lightest load.
				s, sLoad := -1, math.Inf(1)
				for _, c := range t.SenderHosts {
					if usedSend[c] {
						continue
					}
					if load[c] < sLoad || (load[c] == sLoad && c < s) {
						s, sLoad = c, load[c]
					}
				}
				if s < 0 {
					continue
				}
				usedSend[s] = true
				for _, r := range t.ReceiverHosts {
					usedRecv[r] = true
				}
				batch = append(batch, pick{ti, s})
				hosts += 1 + len(t.ReceiverHosts)
			}
			if hosts > bestHosts {
				bestHosts = hosts
				bestBatch = append(bestBatch[:0], batch...)
			}
		}
		// Launch the batch, longest tasks first so stragglers start early.
		sort.SliceStable(bestBatch, func(a, b int) bool {
			return tasks[bestBatch[a].taskIdx].Duration > tasks[bestBatch[b].taskIdx].Duration
		})
		for _, b := range bestBatch {
			t := &tasks[b.taskIdx]
			p.Sender[t.ID] = b.sender
			p.Order = append(p.Order, t.ID)
			load[b.sender] += t.Duration
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
	return in.Search(0, max(dfsNodes, 1), trials, rng, stop)
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
// optimal.
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

// Search is the ensemble's second step: GreedyRandomized and the DFS — under
// the node budget when dfsNodes > 0, else the wall-clock one, which is not
// reproducible — offered in that order, and it returns the incumbent. Each
// is built only if everything before it left the optimum unproven — building
// them all and ranking afterwards returns the same plan (see offer), at the
// cost of the trials, the search and the rng draws behind a schedule that
// could not lose.
func (in *Incumbent) Search(dfsBudget time.Duration, dfsNodes, trials int, rng *rand.Rand, stop func() bool) Plan {
	return in.search(func(t []Task, lpt lptSeed) Plan { return dfsPruning(t, dfsBudget, dfsNodes, stop, &lpt) }, trials, rng)
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
