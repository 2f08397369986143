package schedule

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// referenceDFSNodes is the pre-refactor dfsPruning (a scan over every
// unscheduled task per node, map-based symmetry dedup with rendered-string
// keys) under a node budget. The optimized implementation must visit the
// same nodes in the same order, so with any equal budget it must return the
// identical plan — this differential test is what pins the frontier of
// symmetry-class representatives to the original semantics.
func referenceDFSNodes(tasks []Task, maxNodes int) Plan {
	if len(tasks) == 0 {
		return Plan{Sender: map[int]int{}}
	}
	if maxNodes < 1 {
		maxNodes = 1
	}
	best := LoadBalanceOnly(tasks)
	bestSpan, err := Makespan(tasks, best)
	if err != nil {
		panic(err)
	}
	n := len(tasks)
	used := make([]bool, n)
	order := make([]int, 0, n)
	sender := map[int]int{}
	sendFree := map[int]float64{}
	recvFree := map[int]float64{}
	var expired bool
	checkCount := 0
	var dfs func(depth int, span float64)
	dfs = func(depth int, span float64) {
		if expired {
			return
		}
		checkCount++
		if checkCount > maxNodes {
			expired = true
			return
		}
		if span >= bestSpan {
			return
		}
		if depth == n {
			bestSpan = span
			cp := Plan{Sender: map[int]int{}, Order: append([]int(nil), order...)}
			for k, v := range sender {
				cp.Sender[k] = v
			}
			best = cp
			return
		}
		type key struct {
			s, r string
			d    float64
		}
		tried := map[key]bool{}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			t := tasks[i]
			k := key{fmt.Sprint(t.SenderHosts), fmt.Sprint(t.ReceiverHosts), t.Duration}
			if tried[k] {
				continue
			}
			tried[k] = true
			for _, s := range t.SenderHosts {
				start := sendFree[s]
				for _, r := range t.ReceiverHosts {
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
				used[i] = true
				order = append(order, t.ID)
				sender[t.ID] = s
				oldSend := sendFree[s]
				oldRecv := make([]float64, len(t.ReceiverHosts))
				sendFree[s] = finish
				for j, r := range t.ReceiverHosts {
					oldRecv[j] = recvFree[r]
					recvFree[r] = finish
				}
				dfs(depth+1, newSpan)
				sendFree[s] = oldSend
				for j := len(t.ReceiverHosts) - 1; j >= 0; j-- {
					recvFree[t.ReceiverHosts[j]] = oldRecv[j]
				}
				delete(sender, t.ID)
				order = order[:len(order)-1]
				used[i] = false
				if expired {
					return
				}
			}
		}
	}
	dfs(0, 0)
	return best
}

// randomDFSInstance generates a small instance with deliberately many
// symmetric (identical) tasks, the shape that exposes symmetry-breaking
// regressions.
func randomDFSInstance(rng *rand.Rand) []Task {
	hosts := 2 + rng.Intn(3)
	shapes := 1 + rng.Intn(3) // distinct task shapes; duplicates are symmetric
	type shape struct {
		senders, receivers []int
		dur                float64
	}
	mk := func() shape {
		ns := 1 + rng.Intn(2)
		nr := 1 + rng.Intn(2)
		var s, r []int
		for i := 0; i < ns; i++ {
			s = append(s, rng.Intn(hosts))
		}
		for i := 0; i < nr; i++ {
			r = append(r, hosts+rng.Intn(hosts))
		}
		return shape{s, r, float64(1 + rng.Intn(4))}
	}
	protos := make([]shape, shapes)
	for i := range protos {
		protos[i] = mk()
	}
	n := 3 + rng.Intn(6)
	tasks := make([]Task, n)
	for i := range tasks {
		p := protos[rng.Intn(shapes)]
		tasks[i] = Task{
			ID:            i,
			SenderHosts:   append([]int(nil), p.senders...),
			ReceiverHosts: append([]int(nil), p.receivers...),
			Duration:      p.dur,
		}
	}
	return tasks
}

// TestDFSMatchesReferenceUnderBudget checks that the optimized DFS and the
// pre-refactor reference return identical plans for identical node
// budgets — including tight budgets, where any difference in traversal or
// symmetry pruning changes where the search expires.
func TestDFSMatchesReferenceUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		tasks := randomDFSInstance(rng)
		for _, budget := range []int{1, 7, 50, 400, 20000} {
			got := DFSPruningNodesStop(tasks, budget, nil)
			want := referenceDFSNodes(tasks, budget)
			if !reflect.DeepEqual(got.Order, want.Order) || !reflect.DeepEqual(got.Sender, want.Sender) {
				t.Fatalf("trial %d budget %d: plan diverged from reference\n got: %+v\nwant: %+v\ntasks: %+v",
					trial, budget, got, want, tasks)
			}
		}
	}
}

// multiWordInstance generates 65-84 tasks of six shapes over three sender
// and three receiver hosts: five shapes fill the first 64 tasks, so their
// classes reach from the frontier's first word into the second, and the
// sixth holds every task after them, so its class starts in the second.
func multiWordInstance(rng *rand.Rand) []Task {
	protos := make([]Task, 6)
	for k := range protos {
		protos[k] = Task{SenderHosts: []int{rng.Intn(3), rng.Intn(3)}, ReceiverHosts: []int{3 + rng.Intn(3)}, Duration: 1 + float64(rng.Intn(20))/7}
	}
	tasks := make([]Task, 65+rng.Intn(20))
	for i := range tasks {
		p := protos[5]
		if i < 64 {
			p = protos[rng.Intn(5)]
		}
		tasks[i] = Task{ID: 500 - i, SenderHosts: p.SenderHosts, ReceiverHosts: p.ReceiverHosts, Duration: p.Duration}
	}
	return tasks
}

// TestDFSMatchesReferenceMultiWord: past 64 tasks the frontier spans several
// words, and a class's next member can sit in another word than the one it
// replaces. Visit order, and so the plan at every budget, must not change.
func TestDFSMatchesReferenceMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	improved := 0
	for trial := 0; trial < 4; trial++ {
		tasks := multiWordInstance(rng)
		lpt := mustMakespan(t, tasks, LoadBalanceOnly(tasks))
		for _, budget := range []int{1, 7, 300, 2*StopStride - 1} {
			got, want := DFSPruningNodesStop(tasks, budget, nil), referenceDFSNodes(tasks, budget)
			if !samePlan(got, want) {
				t.Fatalf("trial %d (%d tasks) budget %d: plan diverged from reference\n got: %+v\nwant: %+v", trial, len(tasks), budget, got, want)
			}
			if mustMakespan(t, tasks, got) < lpt {
				improved++
			}
		}
	}
	if improved == 0 {
		t.Fatal("no search improved on its LPT seed: the instances no longer search")
	}
}

// relabelledInstance is a randomDFSInstance whose host ids are renamed out
// of order, so that host ids, their order of first appearance and dense
// slots all rank the hosts differently.
func relabelledInstance(rng *rand.Rand) []Task {
	tasks := randomDFSInstance(rng)
	for i := range tasks {
		for _, hs := range [][]int{tasks[i].SenderHosts, tasks[i].ReceiverHosts} {
			for k, h := range hs {
				hs[k] = 1000 - 37*h
			}
		}
	}
	return tasks
}

// TestGreedyRandomizedMatchesReference holds GreedyRandomized on dense host
// slots to the map-based version it replaced: the same plan, drawing from
// the rng the same number of times — both sources return the same next
// value afterwards.
func TestGreedyRandomizedMatchesReference(t *testing.T) {
	gens := []func(*rand.Rand) []Task{randomDFSInstance, relabelledInstance}
	for _, fam := range ensembleFamilies {
		gens = append(gens, fam.gen)
	}
	for g, gen := range gens {
		rng := rand.New(rand.NewSource(int64(300 + g)))
		for inst := 0; inst < 20; inst++ {
			tasks := gen(rng)
			for _, trials := range []int{1, 4, 16} {
				for seed := int64(1); seed <= 3; seed++ {
					src, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					got, want := GreedyRandomized(tasks, trials, src), referenceGreedyRandomized(tasks, trials, ref)
					if !samePlan(got, want) {
						t.Fatalf("generator %d instance %d trials %d seed %d: plan diverged from reference\n got: %+v\nwant: %+v\ntasks: %+v", g, inst, trials, seed, got, want, tasks)
					}
					if next, refNext := src.Int63(), ref.Int63(); next != refNext {
						t.Fatalf("generator %d instance %d trials %d seed %d: rng drawn a different number of times than by the reference", g, inst, trials, seed)
					}
				}
			}
		}
	}
}

// forEachSchedule calls visit with the makespan of every launch order and
// sender assignment of the tasks — no pruning, no symmetry breaking, no
// budget. Only viable for tiny instances.
func forEachSchedule(t *testing.T, tasks []Task, visit func(span float64)) {
	t.Helper()
	n := len(tasks)
	used := make([]bool, n)
	order := make([]int, 0, n)
	sender := make(map[int]int, n)
	var walk func(depth int)
	walk = func(depth int) {
		if depth == n {
			span, err := Makespan(tasks, Plan{Sender: sender, Order: order})
			if err != nil {
				t.Fatalf("enumeration built an invalid plan: %v", err)
			}
			visit(span)
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			order = append(order, tasks[i].ID)
			for _, s := range tasks[i].SenderHosts {
				sender[tasks[i].ID] = s
				walk(depth + 1)
			}
			delete(sender, tasks[i].ID)
			order = order[:len(order)-1]
			used[i] = false
		}
	}
	walk(0)
}

// bruteForceOptimal returns the smallest makespan any schedule achieves:
// the ground truth the budgeted searches are checked against.
func bruteForceOptimal(t *testing.T, tasks []Task) float64 {
	t.Helper()
	best := math.Inf(1)
	forEachSchedule(t, tasks, func(span float64) {
		if span < best {
			best = span
		}
	})
	return best
}

// tinyDFSInstance generates an instance small enough to brute-force:
// at most 5 tasks with at most 2 candidate senders each.
func tinyDFSInstance(rng *rand.Rand) []Task {
	hosts := 2 + rng.Intn(2)
	n := 2 + rng.Intn(4)
	tasks := make([]Task, n)
	for i := range tasks {
		ns := 1 + rng.Intn(2)
		senders := make([]int, ns)
		for j := range senders {
			senders[j] = rng.Intn(hosts)
		}
		tasks[i] = Task{
			ID:            i,
			SenderHosts:   senders,
			ReceiverHosts: []int{hosts + rng.Intn(hosts)},
			Duration:      float64(1 + rng.Intn(5)),
		}
	}
	return tasks
}

// TestDFSNodesStopReachesBruteForceOptimal: with a budget generous enough
// to complete, DFSPruningNodesStop and EnsembleNodesStop reach exactly
// the brute-force optimal makespan on small instances. Pruning and
// symmetry breaking may change WHICH optimal plan is found, never how
// good it is.
func TestDFSNodesStopReachesBruteForceOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		tasks := tinyDFSInstance(rng)
		want := bruteForceOptimal(t, tasks)

		dfsPlan := DFSPruningNodesStop(tasks, 10_000_000, nil)
		if err := Validate(tasks, dfsPlan); err != nil {
			t.Fatalf("trial %d: DFS plan invalid: %v", trial, err)
		}
		got, err := Makespan(tasks, dfsPlan)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: DFS makespan %g, brute force optimal %g\ntasks: %+v", trial, got, want, tasks)
		}

		ens := EnsembleNodesStop(tasks, 10_000_000, 16, rand.New(rand.NewSource(int64(trial))), nil)
		if err := Validate(tasks, ens); err != nil {
			t.Fatalf("trial %d: ensemble plan invalid: %v", trial, err)
		}
		if got, _ := Makespan(tasks, ens); got != want {
			t.Fatalf("trial %d: ensemble makespan %g, brute force optimal %g", trial, got, want)
		}
	}
}

// stopAfter returns a stop predicate that fires on its m-th poll. The DFS
// polls every StopStride nodes, so firing on poll m aborts the search at
// node m*StopStride — exactly where a node budget of m*StopStride-1
// expires (the budget check precedes the poll and aborts node budget+1).
func stopAfter(m int) func() bool {
	calls := 0
	return func() bool {
		calls++
		return calls >= m
	}
}

// hardDFSInstance generates an instance whose search space comfortably
// exceeds a few StopStride slices: 9-10 tasks with mostly distinct
// durations (little symmetry to prune).
func hardDFSInstance(rng *rand.Rand) []Task {
	hosts := 3
	n := 9 + rng.Intn(2)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			ID:            i,
			SenderHosts:   []int{rng.Intn(hosts), rng.Intn(hosts)},
			ReceiverHosts: []int{hosts + rng.Intn(hosts)},
			Duration:      1 + float64(rng.Intn(97))/7,
		}
	}
	return tasks
}

// TestDFSCancellationMatchesNodeBudget pins the mid-search cancellation
// semantics differentially: aborting via the stop predicate at poll m
// must return the byte-identical plan as running the pre-refactor
// reference (and the optimized node-budget path) to node m*StopStride-1.
// Cancellation only truncates the search — it never perturbs traversal.
func TestDFSCancellationMatchesNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		tasks := hardDFSInstance(rng)
		for _, m := range []int{1, 2, 3, 5} {
			cancelled := DFSPruningNodesStop(tasks, 1<<30, stopAfter(m))
			budget := m*StopStride - 1
			wantRef := referenceDFSNodes(tasks, budget)
			wantOpt := DFSPruningNodesStop(tasks, budget, nil)
			if !reflect.DeepEqual(cancelled.Order, wantRef.Order) || !reflect.DeepEqual(cancelled.Sender, wantRef.Sender) {
				t.Fatalf("trial %d m=%d: cancelled plan diverged from reference at node budget %d", trial, m, budget)
			}
			if !reflect.DeepEqual(cancelled.Order, wantOpt.Order) || !reflect.DeepEqual(cancelled.Sender, wantOpt.Sender) {
				t.Fatalf("trial %d m=%d: cancelled plan diverged from node-budget path", trial, m)
			}
			if err := Validate(tasks, cancelled); err != nil {
				t.Fatalf("trial %d m=%d: cancelled plan invalid: %v", trial, m, err)
			}
		}
	}
}

// referenceEnsembleNodes mirrors the production ensemble exactly but with
// the pre-refactor references as its searching components: same candidate
// set (the witness in its place after LPT, the target search after it),
// same order, same tie-breaking. The target search is the production one
// under targetNodes: referenceTargetSearch, which it is held to by
// TestTargetMatchesReference and FuzzTargetMatchesReference, could not
// stop where a budget counted in the production search's nodes does.
func referenceEnsembleNodes(tasks []Task, dfsNodes, trials int, rng *rand.Rand) Plan {
	return referenceEnsembleBudgets(tasks, targetNodes, dfsNodes, trials, rng)
}

// referenceEnsembleBudgets is referenceEnsembleNodes with the target
// search's budget given: 1 cuts it at its root, as a search that spent its
// budget is cut, and the ensemble goes on as it did before there was one.
func referenceEnsembleBudgets(tasks []Task, targetBudget, dfsNodes, trials int, rng *rand.Rand) Plan {
	candidates := closedFormCandidates(tasks)
	if p, found, _ := targetSearch(tasks, provenBound(tasks), targetBudget, true); found {
		candidates = append(candidates, p)
	}
	candidates = append(candidates, referenceGreedyRandomized(tasks, trials, rng))
	if len(tasks) <= 20 {
		candidates = append(candidates, referenceDFSNodes(tasks, dfsNodes))
	}
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

// TestEnsembleNodesStopMatchesReference checks the full ensemble — not
// just its DFS component — against the reference implementation, both
// uncancelled under various node budgets and cancelled mid-search (the
// stop fires inside the DFS; the closed-form components always finish).
// The reference builds every candidate and ranks them afterwards; the
// production loop stops building at the first proven one, which must not
// show: plans are byte-identical on random instances and on families made
// to leave the loop at each of its exits (ensembleFamilies).
func TestEnsembleNodesStopMatchesReference(t *testing.T) {
	gens := []func(*rand.Rand) []Task{randomDFSInstance, hardDFSInstance, unequalForcedSenderInstance}
	for _, fam := range ensembleFamilies {
		gens = append(gens, fam.gen)
	}
	for g, gen := range gens {
		rng := rand.New(rand.NewSource(int64(1234 + g)))
		trials := 40
		if g > 0 {
			trials = 8 // a family's instances differ in size and duration only
		}
		for trial := 0; trial < trials; trial++ {
			tasks := gen(rng)
			seed := int64(trial)*7919 + 1
			for _, budget := range []int{1, 50, 2000, 50000} {
				got := EnsembleNodesStop(tasks, budget, 16, rand.New(rand.NewSource(seed)), nil)
				want := referenceEnsembleNodes(tasks, budget, 16, rand.New(rand.NewSource(seed)))
				if !reflect.DeepEqual(got.Order, want.Order) || !reflect.DeepEqual(got.Sender, want.Sender) {
					t.Fatalf("generator %d trial %d budget %d: ensemble diverged from reference\n got: %+v\nwant: %+v", g, trial, budget, got, want)
				}
			}
		}
	}
	// Mid-search cancellation points on hard instances.
	hard := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 10; trial++ {
		tasks := hardDFSInstance(hard)
		seed := int64(trial)*104729 + 13
		for _, m := range []int{1, 2, 4} {
			got := EnsembleNodesStop(tasks, 1<<30, 16, rand.New(rand.NewSource(seed)), stopAfter(m))
			want := referenceEnsembleNodes(tasks, m*StopStride-1, 16, rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(got.Order, want.Order) || !reflect.DeepEqual(got.Sender, want.Sender) {
				t.Fatalf("trial %d m=%d: cancelled ensemble diverged from reference", trial, m)
			}
		}
	}
}

// referenceGreedyRandomized is GreedyRandomized as it was before its hosts
// were renumbered into dense slots: loads and the hosts a trial has taken
// are maps keyed by host id, cleared every trial. The production version
// must draw from the rng exactly as this one does and return the same plan.
func referenceGreedyRandomized(tasks []Task, trials int, rng *rand.Rand) Plan {
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

// referenceTargetSearch is the target search as plain recursion: no
// frontier rows, no dominance table, no running loads. It takes the tasks
// longest first, stably, and a node tries every unscheduled task in that
// order but one whose shape (rendered senders, receivers and duration) an
// earlier one at the node had, and each of its candidate senders; it prunes a task that would finish past bound, and a
// launch after which a host side it occupies comes free too late to run
// the rest of its serial load by bound (within targetSlack), that load
// summed afresh over the unscheduled tasks. It returns the first complete
// schedule at or under bound it reaches, and exhausted when it spent
// maxNodes nodes without one.
func referenceTargetSearch(tasks []Task, bound float64, maxNodes int) (best Plan, found, exhausted bool) {
	tasks = slices.Clone(tasks)
	sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].Duration > tasks[b].Duration })
	n := len(tasks)
	used := make([]bool, n)
	order := make([]int, 0, n)
	sender := map[int]int{}
	sendFree, recvFree := map[int]float64{}, map[int]float64{}
	nodes := 0
	slack := bound * (1 + targetSlack)
	shapes := make([]string, n)
	for i := range tasks {
		shapes[i] = fmt.Sprint(tasks[i].SenderHosts, tasks[i].ReceiverHosts, tasks[i].Duration)
	}
	// left is what is still to run of a side's serial load: every task
	// naming receiver host h (recv), or forced to send from h (send).
	left := func(h int, recv bool) float64 {
		sum := 0.0
		for i := range tasks {
			if used[i] {
				continue
			}
			if recv && slices.Contains(tasks[i].ReceiverHosts, h) {
				sum += tasks[i].Duration
			}
			if s, ok := forcedSender(&tasks[i]); !recv && ok && s == h {
				sum += tasks[i].Duration
			}
		}
		return sum
	}
	var dfs func(span float64)
	dfs = func(span float64) {
		if found || exhausted {
			return
		}
		if nodes++; nodes > maxNodes {
			exhausted = true
			return
		}
		if len(order) == n {
			best, found = Plan{Sender: maps.Clone(sender), Order: slices.Clone(order)}, true
			return
		}
		tried := map[string]bool{}
		for i := range tasks {
			t := &tasks[i]
			if used[i] || tried[shapes[i]] {
				continue
			}
			tried[shapes[i]] = true
			for _, snd := range t.SenderHosts {
				start := sendFree[snd]
				for _, r := range t.ReceiverHosts {
					start = max(start, recvFree[r])
				}
				finish := start + t.Duration
				if finish > bound {
					continue
				}
				used[i] = true
				overloaded := finish+left(snd, false) > slack
				for _, r := range t.ReceiverHosts {
					overloaded = overloaded || finish+left(r, true) > slack
				}
				if overloaded {
					used[i] = false
					continue
				}
				oldSend, oldRecv := sendFree[snd], make([]float64, len(t.ReceiverHosts))
				sendFree[snd] = finish
				for j, r := range t.ReceiverHosts {
					oldRecv[j], recvFree[r] = recvFree[r], finish
				}
				order = append(order, t.ID)
				sender[t.ID] = snd
				dfs(max(span, finish))
				delete(sender, t.ID)
				order = order[:len(order)-1]
				for j := len(t.ReceiverHosts) - 1; j >= 0; j-- {
					recvFree[t.ReceiverHosts[j]] = oldRecv[j]
				}
				sendFree[snd] = oldSend
				used[i] = false
				if found || exhausted {
					return
				}
			}
		}
	}
	dfs(0)
	return best, found, exhausted
}
