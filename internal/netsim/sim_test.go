package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// addOp is test shorthand for plain-labelled ops.
func addOp(s *Sim, label string, dur float64, seq int, res []ResourceID, deps ...OpID) OpID {
	return s.MustAddOp(Plain(label), dur, seq, res, deps...)
}

func TestSingleOp(t *testing.T) {
	s := NewSim()
	r := s.MustResource("r")
	addOp(s, "a", 5, 0, []ResourceID{r})
	mk, err := s.Run()
	if err != nil || mk != 5 {
		t.Fatalf("makespan = %v, %v", mk, err)
	}
	if s.OpStart(0) != 0 || s.OpFinish(0) != 5 {
		t.Errorf("op window = [%v,%v]", s.OpStart(0), s.OpFinish(0))
	}
}

func TestSerialResource(t *testing.T) {
	s := NewSim()
	r := s.MustResource("nic")
	addOp(s, "a", 3, 0, []ResourceID{r})
	addOp(s, "b", 4, 1, []ResourceID{r})
	mk, _ := s.Run()
	if mk != 7 {
		t.Errorf("two ops on one resource: makespan = %v, want 7", mk)
	}
}

func TestParallelResources(t *testing.T) {
	s := NewSim()
	addOp(s, "a", 3, 0, []ResourceID{s.MustResource("r1")})
	addOp(s, "b", 4, 1, []ResourceID{s.MustResource("r2")})
	mk, _ := s.Run()
	if mk != 4 {
		t.Errorf("independent ops: makespan = %v, want 4", mk)
	}
}

func TestDependencyChain(t *testing.T) {
	s := NewSim()
	a := addOp(s, "a", 2, 0, nil)
	b := addOp(s, "b", 3, 0, nil, a)
	addOp(s, "c", 1, 0, nil, b)
	mk, _ := s.Run()
	if mk != 6 {
		t.Errorf("chain makespan = %v, want 6", mk)
	}
}

func TestSeqControlsTieBreak(t *testing.T) {
	// Two ops ready at t=0 on the same resource: the one with smaller seq
	// must run first.
	s := NewSim()
	r := s.MustResource("r")
	slow := addOp(s, "slow", 10, 2, []ResourceID{r})
	fast := addOp(s, "fast", 1, 1, []ResourceID{r})
	s.Run()
	if s.OpStart(fast) != 0 {
		t.Errorf("fast (seq 1) should start first, started at %v", s.OpStart(fast))
	}
	if s.OpStart(slow) != 1 {
		t.Errorf("slow should start at 1, started at %v", s.OpStart(slow))
	}
}

func TestReadyTimeBeatsSeq(t *testing.T) {
	// An op that becomes ready earlier grabs the resource even with a
	// larger seq (FIFO by readiness, then seq).
	s := NewSim()
	r := s.MustResource("r")
	gate := addOp(s, "gate", 5, 0, nil)
	early := addOp(s, "early", 2, 9, []ResourceID{r})
	late := addOp(s, "late", 2, 1, []ResourceID{r}, gate)
	s.Run()
	if s.OpStart(early) != 0 {
		t.Errorf("early started at %v, want 0", s.OpStart(early))
	}
	if s.OpStart(late) != 5 {
		t.Errorf("late started at %v, want 5", s.OpStart(late))
	}
}

func TestMultiResourceOp(t *testing.T) {
	// An op occupying two resources blocks both.
	s := NewSim()
	r1, r2 := s.MustResource("r1"), s.MustResource("r2")
	addOp(s, "both", 5, 0, []ResourceID{r1, r2})
	addOp(s, "on1", 1, 1, []ResourceID{r1})
	addOp(s, "on2", 1, 1, []ResourceID{r2})
	mk, _ := s.Run()
	if mk != 6 {
		t.Errorf("makespan = %v, want 6", mk)
	}
}

func TestAddOpValidation(t *testing.T) {
	s := NewSim()
	if _, err := s.AddOpS("bad", -1, 0, nil); err == nil {
		t.Error("negative duration should fail")
	}
	if _, err := s.AddOpS("bad", math.NaN(), 0, nil); err == nil {
		t.Error("NaN duration should fail")
	}
	if _, err := s.AddOpS("bad", 1, 0, nil, OpID(5)); err == nil {
		t.Error("unknown dependency should fail")
	}
	if _, err := s.AddOpS("bad", 1, 0, []ResourceID{7}); err == nil {
		t.Error("unknown resource handle should fail")
	}
	addOp(s, "ok", 1, 0, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddOpS("late", 1, 0, nil); err == nil {
		t.Error("adding after Run should fail")
	}
}

// TestResourceAfterRunFails pins the post-Run guard: Resource and
// NewResource share AddOp's error path instead of silently minting dead
// resources into a completed schedule.
func TestResourceAfterRunFails(t *testing.T) {
	s := NewSim()
	addOp(s, "a", 1, 0, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resource("late"); err == nil {
		t.Error("Resource after Run should fail")
	}
	if _, err := s.NewResource("late"); err == nil {
		t.Error("NewResource after Run should fail")
	}
	if got := s.NumResources(); got != 0 {
		t.Errorf("failed registrations must not leak resources, have %d", got)
	}
	if u := s.Utilization(); len(u) != 0 {
		t.Errorf("utilization reports dead resources: %v", u)
	}
	// After Reset the guard lifts.
	s.Reset()
	if _, err := s.Resource("fresh"); err != nil {
		t.Errorf("Resource after Reset failed: %v", err)
	}
}

func TestRunTwiceIsIdempotent(t *testing.T) {
	s := NewSim()
	addOp(s, "a", 2, 0, nil)
	m1, _ := s.Run()
	m2, err := s.Run()
	if err != nil || m1 != m2 {
		t.Errorf("second Run = %v, %v", m2, err)
	}
}

func TestCycleDetection(t *testing.T) {
	// Forward references are unrepresentable through AddOp, so the only
	// reachable "cycle" is a self-dependency at the last index; verify the
	// validation rejects it.
	s := NewSim()
	addOp(s, "a", 1, 0, nil)
	if _, err := s.AddOpS("self", 1, 0, nil, OpID(1)); err == nil {
		t.Error("self-dependency should be rejected")
	}
}

func TestZeroDurationOps(t *testing.T) {
	s := NewSim()
	a := addOp(s, "a", 0, 0, nil)
	b := addOp(s, "b", 0, 0, nil, a)
	mk, _ := s.Run()
	if mk != 0 {
		t.Errorf("makespan = %v", mk)
	}
	if s.OpFinish(b) != 0 {
		t.Errorf("finish = %v", s.OpFinish(b))
	}
}

func TestEventsSorted(t *testing.T) {
	s := NewSim()
	r := s.MustResource("r")
	addOp(s, "second", 1, 2, []ResourceID{r})
	addOp(s, "first", 1, 1, []ResourceID{r})
	s.Run()
	ev := s.Events()
	if len(ev) != 2 || ev[0].Label != "first" || ev[1].Label != "second" {
		t.Errorf("events = %+v", ev)
	}
	if len(ev[0].Resources) != 1 || ev[0].Resources[0] != "r" {
		t.Errorf("event resources = %v", ev[0].Resources)
	}
}

func TestUtilization(t *testing.T) {
	s := NewSim()
	r1, r2 := s.MustResource("busy"), s.MustResource("half")
	addOp(s, "a", 4, 0, []ResourceID{r1})
	addOp(s, "b", 2, 0, []ResourceID{r2})
	s.Run()
	u := s.Utilization()
	if u["busy"] != 1.0 || u["half"] != 0.5 {
		t.Errorf("utilization = %v", u)
	}
}

func TestResourceIdentity(t *testing.T) {
	s := NewSim()
	a := s.MustResource("x")
	b := s.MustResource("x")
	if a != b {
		t.Error("Resource must return the same handle for the same name")
	}
	if s.ResourceName(a) != "x" {
		t.Errorf("name = %q", s.ResourceName(a))
	}
}

// TestLabelRendering pins every Label pattern against its legacy
// fmt.Sprintf format.
func TestLabelRendering(t *testing.T) {
	cases := []struct {
		l    Label
		want string
	}{
		{Plain("u3/bc"), "u3/bc"},
		{Label{Prefix: "u2", Kind: LabelSendRecv, A: 7}, "u2/sr->7"},
		{Label{Prefix: "u2", Kind: LabelScatter, A: 11}, "u2/scatter->11"},
		{Label{Prefix: "u0/bc", Kind: LabelChunkHop, A: 3, B: 2}, "u0/bc/c3/h2"},
		{Label{Prefix: "x/lag", Kind: LabelRound, A: 1, B: 4}, "x/lag/r1/d4"},
		{Label{Prefix: "a2a", Kind: LabelPair, A: 5, B: 9}, "a2a/5->9"},
		{Label{Prefix: "a2a", Kind: LabelJoin, A: 6}, "a2a/join6"},
		{Label{Prefix: "m", Kind: LabelMove, A: 4, B: 8}, "m4->8"},
		{Label{Prefix: "Bd", Kind: LabelStageTask, A: 2, B: 13}, "s2/Bd13"},
		{Label{Prefix: "fwd", Kind: LabelComm, A: 1, B: 7}, "c1:fwd/7"},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("label %+v renders %q, want %q", c.l, got, c.want)
		}
	}
}

// TestResetReplaysIdentically: after Reset, rebuilding the same schedule
// on the same Sim produces identical makespan and events, and the arena
// reuse does not leak state from the previous run.
func TestResetReplaysIdentically(t *testing.T) {
	build := func(s *Sim) {
		r1, r2 := s.MustResource("r1"), s.MustResource("r2")
		a := addOp(s, "a", 3, 0, []ResourceID{r1})
		b := addOp(s, "b", 2, 1, []ResourceID{r1, r2}, a)
		addOp(s, "c", 4, 2, []ResourceID{r2}, b)
	}
	s := NewSim()
	build(s)
	mk1, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	ev1 := s.Events()
	for i := 0; i < 3; i++ {
		s.Reset()
		if s.NumOps() != 0 || s.NumResources() != 0 {
			t.Fatalf("Reset left %d ops, %d resources", s.NumOps(), s.NumResources())
		}
		build(s)
		mk2, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if mk2 != mk1 {
			t.Fatalf("replay %d makespan = %v, want %v", i, mk2, mk1)
		}
		ev2 := s.Events()
		if len(ev2) != len(ev1) {
			t.Fatalf("replay %d: %d events, want %d", i, len(ev2), len(ev1))
		}
		for j := range ev1 {
			if ev1[j].Label != ev2[j].Label || ev1[j].Start != ev2[j].Start || ev1[j].Finish != ev2[j].Finish {
				t.Fatalf("replay %d event %d = %+v, want %+v", i, j, ev2[j], ev1[j])
			}
		}
	}
}

// TestResetAfterPartialBuild: resetting an un-run schedule discards it.
func TestResetAfterPartialBuild(t *testing.T) {
	s := NewSim()
	addOp(s, "orphan", 5, 0, []ResourceID{s.MustResource("r")})
	s.Reset()
	addOp(s, "a", 1, 0, []ResourceID{s.MustResource("r")})
	mk, err := s.Run()
	if err != nil || mk != 1 {
		t.Fatalf("makespan after reset = %v, %v; want 1", mk, err)
	}
}

// Property: makespan >= critical path length and >= max per-resource load;
// every op starts after all of its dependencies finish.
func TestSimInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSim()
		nres := 1 + r.Intn(4)
		res := make([]ResourceID, nres)
		for i := range res {
			res[i] = s.MustResource(string(rune('a' + i)))
		}
		n := 1 + r.Intn(40)
		durations := make([]float64, n)
		deps := make([][]OpID, n)
		for i := 0; i < n; i++ {
			durations[i] = float64(r.Intn(10))
			var d []OpID
			for j := 0; j < i; j++ {
				if r.Float64() < 0.1 {
					d = append(d, OpID(j))
				}
			}
			deps[i] = d
			rs := []ResourceID{res[r.Intn(nres)]}
			addOp(s, "op", durations[i], i, rs, d...)
		}
		mk, err := s.Run()
		if err != nil {
			return false
		}
		// Dependency ordering holds.
		for i := 0; i < n; i++ {
			for _, d := range deps[i] {
				if s.OpStart(OpID(i)) < s.OpFinish(d)-1e-9 {
					return false
				}
			}
		}
		// Makespan lower bound: the critical path.
		longest := make([]float64, n)
		var critical float64
		for i := 0; i < n; i++ {
			longest[i] = durations[i]
			for _, d := range deps[i] {
				if longest[d]+durations[i] > longest[i] {
					longest[i] = longest[d] + durations[i]
				}
			}
			if longest[i] > critical {
				critical = longest[i]
			}
		}
		if mk < critical-1e-9 {
			return false
		}
		return !math.IsNaN(mk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: resources never run two ops at once (verified by reconstructing
// intervals from events per resource).
func TestResourceExclusivity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSim()
		res := []ResourceID{s.MustResource("r1"), s.MustResource("r2")}
		n := 2 + r.Intn(30)
		type window struct{ start, finish float64 }
		byRes := map[ResourceID][]window{}
		ids := make([]OpID, 0, n)
		resOf := make([]ResourceID, 0, n)
		for i := 0; i < n; i++ {
			rs := res[r.Intn(2)]
			var d []OpID
			if i > 0 && r.Float64() < 0.3 {
				d = append(d, ids[r.Intn(len(ids))])
			}
			id := addOp(s, "op", 1+float64(r.Intn(5)), i, []ResourceID{rs}, d...)
			ids = append(ids, id)
			resOf = append(resOf, rs)
		}
		if _, err := s.Run(); err != nil {
			return false
		}
		for i, id := range ids {
			byRes[resOf[i]] = append(byRes[resOf[i]], window{s.OpStart(id), s.OpFinish(id)})
		}
		for _, ws := range byRes {
			for i := range ws {
				for j := i + 1; j < len(ws); j++ {
					lo := math.Max(ws[i].start, ws[j].start)
					hi := math.Min(ws[i].finish, ws[j].finish)
					if hi-lo > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
