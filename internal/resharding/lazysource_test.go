package resharding

import (
	"math/rand"
	"reflect"
	"testing"

	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
)

// TestLazySourceMatchesNewSource: the source the ensemble is handed draws
// rand.NewSource's stream exactly — raw and through every rand.Rand method
// the scheduler or a future candidate could call — so seeding late cannot
// move a plan.
func TestLazySourceMatchesNewSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -5, 1 << 40} {
		lazy, ref := &lazySource{seed: seed}, rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 10_000; i++ {
			if i%3 == 0 {
				if a, b := lazy.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d, rand.NewSource gives %d", seed, i, a, b)
				}
			} else if a, b := lazy.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %d, rand.NewSource gives %d", seed, i, a, b)
			}
		}

		got, want := ensembleRand(seed), rand.New(rand.NewSource(seed))
		permA, permB := rand.Perm(17), rand.Perm(17)
		copy(permB, permA)
		for i := 0; i < 10_000; i++ {
			switch i % 5 {
			case 0:
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("seed %d step %d: Rand.Int63 %d != %d", seed, i, a, b)
				}
			case 1:
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d step %d: Rand.Uint64 %d != %d", seed, i, a, b)
				}
			case 2:
				got.Shuffle(len(permA), func(x, y int) { permA[x], permA[y] = permA[y], permA[x] })
				want.Shuffle(len(permB), func(x, y int) { permB[x], permB[y] = permB[y], permB[x] })
				if !reflect.DeepEqual(permA, permB) {
					t.Fatalf("seed %d step %d: Shuffle diverged", seed, i)
				}
			case 3:
				if a, b := got.Intn(1000), want.Intn(1000); a != b {
					t.Fatalf("seed %d step %d: Rand.Intn %d != %d", seed, i, a, b)
				}
			case 4:
				if a, b := got.Float64(), want.Float64(); a != b {
					t.Fatalf("seed %d step %d: Rand.Float64 %v != %v", seed, i, a, b)
				}
			}
		}

		// Reseeding restarts the stream, as it does for rand.NewSource.
		lazy.Seed(seed + 1)
		if a, b := lazy.Int63(), rand.NewSource(seed+1).Int63(); a != b {
			t.Fatalf("seed %d: after Seed the first draw is %d, want %d", seed, a, b)
		}
	}
}

// TestLazySourceSeedsOnlyWhenDrawn: a plan whose ensemble ends at a
// closed-form candidate never draws, so its source is never built; one that
// reaches the randomized trials builds it. The ensemble calls below are the
// ones NewPlanContext makes, and must return its host plan.
func TestLazySourceSeedsOnlyWhenDrawn(t *testing.T) {
	c := microCluster(3)
	for _, tc := range []struct {
		name   string
		task   *sharding.Task
		seeded bool
	}{
		{"one unit, proven at Naive", oneToMany(t, c, []int{4, 5, 8, 9}, 64, 64), false},
		{"slowTask, searched", slowTask(t), true},
	} {
		plan, err := NewPlan(tc.task, Options{Scheduler: SchedEnsemble, Seed: 3, DFSNodes: 5000})
		if err != nil {
			t.Fatal(err)
		}
		src := &lazySource{seed: plan.Opts.Seed}
		hostPlan := schedule.EnsembleNodesStop(plan.HostTasks, plan.Opts.DFSNodes, plan.Opts.Trials, rand.New(src), nil)
		if !reflect.DeepEqual(hostPlan, plan.HostPlan) {
			t.Fatalf("%s: the ensemble call returned a different host plan than NewPlan", tc.name)
		}
		if seeded := src.src != nil; seeded != tc.seeded {
			t.Errorf("%s: source seeded = %v, want %v", tc.name, seeded, tc.seeded)
		}
	}
}
