package schedule

import (
	"math/rand"
	"testing"
)

// fuzzTasks decodes bytes into at most 8 tasks over 4 sender and 4 receiver
// hosts. Three bytes per task: candidate senders (one, the same one twice, or
// two), receivers (one to three, repeats allowed) and a duration that is a
// small integer or a number of sevenths — equal durations and inexact sums
// both come up, which are the two branches of provenBound.
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
		if d&0x80 != 0 {
			dur = float64(1+d&0x3f) / 7
		}
		tasks = append(tasks, Task{ID: len(tasks), SenderHosts: senders, ReceiverHosts: receivers, Duration: dur})
	}
	return tasks
}

// scheduleCount is the number of schedules forEachSchedule visits.
func scheduleCount(tasks []Task) int {
	count := 1
	for i, tk := range tasks {
		count *= (i + 1) * len(tk.SenderHosts)
	}
	return count
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
		got := in.Search(0, budget, 4, rand.New(rand.NewSource(seed)), nil)
		want := referenceEnsembleNodes(tasks, budget, 4, rand.New(rand.NewSource(seed)))
		if !samePlan(got, want) {
			t.Fatalf("budget %d seed %d: ensemble diverged from reference\n got: %+v\nwant: %+v\ntasks: %+v", budget, seed, got, want, tasks)
		}
		if exit := ensembleExit(t, tasks, 4, seed); proven != (exit == exitNaive || exit == exitLPT) {
			t.Fatalf("ClosedForm proven = %v, eager reference exits at %s\ntasks: %+v", proven, exit, tasks)
		}
	})
}
