package resharding

import (
	"context"
	"reflect"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// autotuneTask builds a two-host resharding with several unit tasks so the
// schedulers have real choices to make.
func autotuneTask(t *testing.T, c mesh.Topology, srcFirst, dstFirst int) *sharding.Task {
	t.Helper()
	src, err := mesh.NewMesh(c, []int{2, 2}, contiguous(srcFirst, 4))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := mesh.NewMesh(c, []int{2, 2}, contiguous(dstFirst, 4))
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(64, 96), tensor.Float32,
		src, sharding.MustParse("S01R"), dst, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func contiguous(first, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// TestAutotuneDeterministic pins the issue's requirement: the same seed
// yields the identical winning plan across runs and worker-pool sizes.
func TestAutotuneDeterministic(t *testing.T) {
	c := microCluster(2)
	var first *AutotuneResult
	for _, workers := range []int{1, 2, 7, 16} {
		task := autotuneTask(t, c, 0, 4)
		res, err := AutotuneContext(context.Background(), task, AutotuneOptions{
			Base:    Options{Seed: 42},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.BestIndex != first.BestIndex {
			t.Errorf("workers=%d: best candidate %d, want %d", workers, res.BestIndex, first.BestIndex)
		}
		if res.BestSim.Makespan != first.BestSim.Makespan {
			t.Errorf("workers=%d: makespan %g, want %g", workers, res.BestSim.Makespan, first.BestSim.Makespan)
		}
		if !reflect.DeepEqual(res.Best.Order, first.Best.Order) {
			t.Errorf("workers=%d: launch order %v, want %v", workers, res.Best.Order, first.Best.Order)
		}
		if !reflect.DeepEqual(res.Best.SenderOf, first.Best.SenderOf) {
			t.Errorf("workers=%d: senders %v, want %v", workers, res.Best.SenderOf, first.Best.SenderOf)
		}
		if !reflect.DeepEqual(res.Trials, first.Trials) {
			t.Errorf("workers=%d: trial table differs", workers)
		}
	}
}

// TestAutotuneWinnerIsMinimum: the winner must not lose to any trial, and
// ties must resolve to the earliest grid position.
func TestAutotuneWinnerIsMinimum(t *testing.T) {
	c := microCluster(2)
	res, err := AutotuneContext(context.Background(), autotuneTask(t, c, 0, 4), AutotuneOptions{Base: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != len(DefaultAutotuneGrid()) {
		t.Fatalf("trials = %d, want full grid %d", len(res.Trials), len(DefaultAutotuneGrid()))
	}
	for i, tr := range res.Trials {
		if tr.Err != "" {
			t.Errorf("candidate %v failed: %s", tr.Candidate, tr.Err)
			continue
		}
		if tr.Makespan < res.BestSim.Makespan {
			t.Errorf("candidate %d (%v) beats the declared winner: %g < %g",
				i, tr.Candidate, tr.Makespan, res.BestSim.Makespan)
		}
		if tr.Makespan == res.BestSim.Makespan && i < res.BestIndex {
			t.Errorf("tie at %g must go to grid position %d, winner is %d", tr.Makespan, i, res.BestIndex)
		}
	}
}

// TestAutotuneCustomGrid: a restricted grid only evaluates its candidates.
func TestAutotuneCustomGrid(t *testing.T) {
	c := microCluster(2)
	grid := []AutotuneCandidate{
		{Strategy: SendRecv, Scheduler: SchedNaive},
		{Strategy: Broadcast, Scheduler: SchedEnsemble},
	}
	res, err := AutotuneContext(context.Background(), autotuneTask(t, c, 0, 4), AutotuneOptions{
		Base:       Options{Seed: 1},
		Candidates: grid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 2 {
		t.Fatalf("trials = %d, want 2", len(res.Trials))
	}
	// Broadcast + ensemble is the paper's configuration; it must beat naive
	// send/recv on a one-to-many-heavy boundary.
	if res.BestIndex != 1 {
		t.Errorf("best = %v, want broadcast+ensemble", res.Trials[res.BestIndex].Candidate)
	}
	if _, err := AutotuneContext(context.Background(), autotuneTask(t, c, 0, 4), AutotuneOptions{Candidates: []AutotuneCandidate{}}); err == nil {
		t.Error("empty candidate grid should fail")
	}
}

// TestAutotuneSharedCache: autotuning two congruent boundaries through one
// cache plans the grid once and serves the second boundary from memory.
func TestAutotuneSharedCache(t *testing.T) {
	c := microCluster(4)
	cache := NewPlanCache()
	gridSize := len(DefaultAutotuneGrid())

	r1, err := AutotuneContext(context.Background(), autotuneTask(t, c, 0, 4), AutotuneOptions{Base: Options{Seed: 9}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != gridSize || st.Hits != 0 {
		t.Fatalf("first sweep: stats = %+v, want %d misses", st, gridSize)
	}

	// Hosts 2->3 instead of 0->1: structurally identical, translated.
	r2, err := AutotuneContext(context.Background(), autotuneTask(t, c, 8, 12), AutotuneOptions{Base: Options{Seed: 9}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != gridSize || st.Hits != gridSize {
		t.Errorf("second sweep: stats = %+v, want %d hits and no new misses", st, gridSize)
	}
	if r1.BestIndex != r2.BestIndex || r1.BestSim.Makespan != r2.BestSim.Makespan {
		t.Errorf("congruent boundaries disagree: (%d, %g) vs (%d, %g)",
			r1.BestIndex, r1.BestSim.Makespan, r2.BestIndex, r2.BestSim.Makespan)
	}
}

// TestDeriveSeedStreams: candidates must not share RNG streams, and the
// derivation must be stable.
func TestDeriveSeedStreams(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := deriveSeed(7, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at candidate %d", i)
		}
		seen[s] = true
		if s != deriveSeed(7, i) {
			t.Fatal("deriveSeed must be pure")
		}
	}
}
