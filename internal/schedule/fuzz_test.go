package schedule

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzTasks decodes bytes into at most 8 tasks over 4 sender and 4 receiver
// hosts. Three bytes per task: candidate senders (one, the same one twice, or
// two), receivers (one to three, repeats allowed) and a duration that is a
// small integer, a number of sevenths or a multiple of 3.93216e-06 s (a
// power of two over a power of ten, as the benchmark's problems time their
// units) — equal durations and inexact sums that depend on the order both
// come up.
func fuzzTasks(data []byte) []Task {
	var tasks []Task
	for ; len(data) >= 3 && len(tasks) < 8; data = data[3:] {
		s, r, d := data[0], data[1], data[2]
		senders := []int{int(s & 3)}
		if s&4 != 0 {
			senders = append(senders, int(s>>3&3))
		}
		receivers := []int{4 + int(r&3)}
		for k, extra := 0, int(r>>2&3); k < extra && k < 2; k++ {
			receivers = append(receivers, 4+int(r>>(4+2*k)&3))
		}
		dur := float64(1 + d&7)
		switch {
		case d&0x80 != 0:
			dur = float64(1+d&0x3f) / 7
		case d&0x40 != 0:
			dur = float64(1+d&0x3f) * 3.93216e-06
		}
		tasks = append(tasks, Task{ID: len(tasks), SenderHosts: senders, ReceiverHosts: receivers, Duration: dur})
	}
	return tasks
}

// fuzzClassTasks decodes bytes into at most 20 tasks of at most four shapes,
// so that most tasks share a symmetry class with others — the sizes and the
// repetition of the searches the ensemble runs. The first byte picks the
// number of shapes, three bytes per shape decode as in fuzzTasks, and every
// later byte adds a run of one to four tasks of one shape. IDs count down,
// so no task's ID is its index.
func fuzzClassTasks(data []byte) []Task {
	if len(data) == 0 {
		return nil
	}
	shapes := fuzzTasks(data[1:min(len(data), 1+3*(1+int(data[0]&3)))])
	if len(shapes) == 0 {
		return nil
	}
	var tasks []Task
	for _, b := range data[1+3*len(shapes):] {
		sh := shapes[int(b&3)%len(shapes)]
		for run := 1 + int(b>>2&3); run > 0 && len(tasks) < 20; run-- {
			tasks = append(tasks, Task{ID: 100 - len(tasks), SenderHosts: sh.SenderHosts, ReceiverHosts: sh.ReceiverHosts, Duration: sh.Duration})
		}
	}
	return tasks
}

// scheduleCount is the number of schedules forEachSchedule visits, or
// math.MaxInt if that does not fit an int.
func scheduleCount(tasks []Task) int {
	count := 1
	for i, tk := range tasks {
		f := (i + 1) * len(tk.SenderHosts)
		if f > 0 && count > math.MaxInt/f {
			return math.MaxInt
		}
		count *= f
	}
	return count
}

// FuzzDFSMatchesReference holds the search to the pre-refactor reference on
// instances of up to 20 tasks with few classes: the same plan under every
// budget, so the same nodes in the same order. Where the instance is small
// enough to enumerate, the unbudgeted search reaches the optimum.
func FuzzDFSMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x0c, 0, 0x83, 0x0c, 0x0c, 0x0c, 0x0c}, uint8(3))                                     // one class of 16: proven before any search
	f.Add([]byte{1, 0x0c, 0, 0x83, 0x0c, 1, 0x85, 0x0c, 0x0d, 0x0c, 0x0d, 0x0c}, uint8(3))                // two classes of 12 and 8, interleaved runs
	f.Add([]byte{2, 0x0c, 0, 3, 0x0c, 1, 3, 0, 2, 0x89, 0x0d, 0x0e, 0x0c, 0x0d, 0x0e}, uint8(2))          // a choice of sender beside a forced one, 20 tasks
	f.Add([]byte{3, 4, 0x05, 5, 0, 0x15, 4, 1, 1, 2, 0x0c, 0x3a, 0x90, 0xff, 0xe4, 0x1b}, uint8(1))       // two of four shapes, repeated hosts
	f.Add([]byte{2, 0x0c, 0, 0x83, 0x0c, 0x14, 0x85, 1, 1, 0x89, 0x00, 0x01, 0x02, 0x01, 0x00}, uint8(0)) // 5 tasks, LPT 15/11 of the optimum: enumerated
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 0xf0, 0xf1, 0xf0, 0xf1, 0xf0, 0xf1, 0xf0, 0xf1}, uint8(1))          // two shapes that are one class
	f.Fuzz(func(t *testing.T, data []byte, budgetSel uint8) {
		tasks := fuzzClassTasks(data)
		if len(tasks) == 0 {
			t.Skip("no task decoded")
		}
		budget := []int{1, 7, 2*StopStride - 1, 50_000}[budgetSel%4]
		got, want := DFSPruningNodesStop(tasks, budget, nil), referenceDFSNodes(tasks, budget)
		if !samePlan(got, want) {
			t.Fatalf("budget %d: plan diverged from reference\n got: %+v\nwant: %+v\ntasks: %+v", budget, got, want, tasks)
		}
		if err := Validate(tasks, got); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if scheduleCount(tasks) <= 50_000 {
			opt := bruteForceOptimal(t, tasks)
			if span := mustMakespan(t, tasks, DFSPruningNodesStop(tasks, 1<<30, nil)); span != opt {
				t.Fatalf("unbudgeted search makespan %v, optimum %v\ntasks: %+v", span, opt, tasks)
			}
		}
	})
}

// FuzzEnsembleMatchesReference holds the two halves of the early exit
// together on arbitrary small instances: provenBound stays at or below every
// schedule there is (enumerated while the instance is small enough), and the
// candidate loop that stops on it returns the plan of the eager reference —
// taken in one call or as its two steps, the first of which reports Proven
// exactly when the eager reference ends at Naive or LoadBalanceOnly.
func FuzzEnsembleMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1}, uint8(0), int64(1))                            // one sender, one receiver, uniform
	f.Add([]byte{0, 0, 0x83, 0, 1, 0x85, 0, 2, 0x89, 0, 3, 0x82}, uint8(2), int64(7))       // forced sender, sevenths
	f.Add([]byte{0x0c, 0, 3, 0x0c, 1, 3, 0x0c, 0, 3, 0x0c, 1, 3}, uint8(1), int64(3))       // a choice of sender everywhere
	f.Add([]byte{4, 0x05, 5, 0, 0x15, 4, 1, 0x01, 2, 0x0c, 0x3a, 0x90}, uint8(3), int64(9)) // repeated hosts
	f.Fuzz(func(t *testing.T, data []byte, budgetSel uint8, seed int64) {
		tasks := fuzzTasks(data)
		if len(tasks) == 0 {
			t.Skip("no task decoded")
		}
		pb := provenBound(tasks)
		if lb := LowerBound(tasks); pb > lb {
			t.Fatalf("provenBound %v above LowerBound %v\ntasks: %+v", pb, lb, tasks)
		}
		if scheduleCount(tasks) <= 50_000 {
			forEachSchedule(t, tasks, func(span float64) {
				if span < pb {
					t.Fatalf("a schedule evaluates to %v, below provenBound %v\ntasks: %+v", span, pb, tasks)
				}
			})
		}
		budget := []int{1, 50, 2000, 50000}[budgetSel%4]
		// EnsembleNodesStop, taken apart.
		in := ClosedForm(tasks)
		proven := in.Proven()
		got := in.Search(budget, 4, rand.New(rand.NewSource(seed)), nil)
		want := referenceEnsembleNodes(tasks, budget, 4, rand.New(rand.NewSource(seed)))
		if !samePlan(got, want) {
			t.Fatalf("budget %d seed %d: ensemble diverged from reference\n got: %+v\nwant: %+v\ntasks: %+v", budget, seed, got, want, tasks)
		}
		if exit := ensembleExit(t, tasks, 4, seed, budget); proven != (exit == exitNaive || exit == exitLPT) {
			t.Fatalf("ClosedForm proven = %v, eager reference exits at %s\ntasks: %+v", proven, exit, tasks)
		}
	})
}

// FuzzClosedFormMatchesBruteForce is the floor's soundness oracle on
// arbitrary instances small enough to enumerate (checkFloor): provenBound is
// each serial load's least chain over every launch order, no schedule beats
// it, it moves from the shrunk floor only where a load's durations differ
// and only upward, and an incumbent ClosedForm calls proven is an optimum,
// as is a GreedyEnsemble plan that meets the floor.
func FuzzClosedFormMatchesBruteForce(f *testing.F) {
	f.Add([]byte{0, 0, 0x83, 1, 0, 0x85, 2, 0, 0x89, 3, 0, 0x82})       // one receiver, sevenths
	f.Add([]byte{0, 0, 0x87, 0, 1, 0x8b, 0, 2, 0x8d, 0, 3, 0x95})       // one forced sender, sevenths
	f.Add([]byte{0, 0, 0x44, 1, 0, 0x44, 2, 0, 0x45, 3, 0, 0x4b})       // one receiver, multiples of 3.93216e-06
	f.Add([]byte{0, 0, 0x46, 0, 1, 0x47, 0, 2, 0x4a, 0x0c, 3, 0x4e})    // a forced sender and a free one, 3.93216e-06
	f.Add([]byte{0, 0x04, 0x41, 1, 0x19, 0x42, 2, 0x06, 0x43, 3, 1, 2}) // receivers shared two at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks := fuzzTasks(data)
		if len(tasks) == 0 || scheduleCount(tasks) > 50_000 {
			t.Skip("no task decoded, or too many schedules to enumerate")
		}
		checkFloor(t, tasks)
	})
}
