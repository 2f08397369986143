package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// testReq is the canonical request most tests serve: the paper's 2-host p3
// boundary.
func testReq(seed int64) *PlanRequest {
	return &PlanRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 2},
		Shape:    []int{64, 96},
		Src:      Endpoint{Mesh: "2x2@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x2@4", Spec: "S0R"},
		Options:  PlanOptions{Seed: seed},
	}
}

// searchedReq is a request whose draft the closed-form candidates cannot
// prove — 256 units over 8 hosts, ~10 ms of search — so its miss meets the
// plan pool and the controller's verdict; every testReq is proven.
func searchedReq(t testing.TB, seed int64) *PlanRequest {
	return mustSearch(t, &PlanRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 8},
		Shape:    []int{128, 128, 8},
		Src:      Endpoint{Mesh: "4x4@0", Spec: "RS01R"},
		Dst:      Endpoint{Mesh: "4x4@16", Spec: "S01RR"},
		Options:  PlanOptions{Seed: seed, DFSNodes: 20000, Chunks: 8},
	})
}

// mustSearch returns req, failing the test if its draft is proven: a
// fixture that stopped searching would test the wrong path.
func mustSearch(t testing.TB, req *PlanRequest) *PlanRequest {
	t.Helper()
	task, opts, _, err := New(Config{}).ParsePlanRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := resharding.NewDraft(task, opts); err != nil || d.Proven() {
		t.Fatalf("fixture rotted: the draft of %+v is proven (err %v), the test needs one that searches", req, err)
	}
	return req
}

// directTask rebuilds testReq's task outside the service.
func directTask(t *testing.T, seed int64) (*sharding.Task, resharding.Options) {
	t.Helper()
	topo, err := mesh.DefaultRegistry().Build("p3", mesh.TopologyParams{Hosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err := topo.Slice([]int{2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := topo.Slice([]int{2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(64, 96), tensor.Float32,
		src, sharding.MustParse("S01R"), dst, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := NormalizedOptions(PlanOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return task, opts
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL, nil)
}

// TestPlanMatchesDirectPath pins the acceptance criterion: the served plan
// is byte-identical to resharding.NewPlan on the same task and options.
func TestPlanMatchesDirectPath(t *testing.T) {
	_, client := newTestServer(t, Config{})
	resp, err := client.PlanV2(context.Background(), testReq(3))
	if err != nil {
		t.Fatal(err)
	}

	task, opts := directTask(t, 3)
	plan, err := resharding.NewPlan(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}

	senders := make([]int, len(task.Units))
	for i := range senders {
		senders[i] = plan.SenderOf[i]
	}
	if !reflect.DeepEqual(resp.Senders, senders) {
		t.Errorf("senders: served %v, direct %v", resp.Senders, senders)
	}
	if !reflect.DeepEqual(resp.Order, plan.Order) {
		t.Errorf("order: served %v, direct %v", resp.Order, plan.Order)
	}
	if resp.MakespanSeconds != sim.Makespan || resp.EffectiveGbps != sim.EffectiveGbps || resp.NumOps != sim.NumOps {
		t.Errorf("timing: served (%g, %g, %d), direct (%g, %g, %d)",
			resp.MakespanSeconds, resp.EffectiveGbps, resp.NumOps,
			sim.Makespan, sim.EffectiveGbps, sim.NumOps)
	}
	if resp.NumUnits != len(task.Units) {
		t.Errorf("units: %d vs %d", resp.NumUnits, len(task.Units))
	}
	if resp.Key != resharding.CacheKey(task, opts.WithDefaults()) {
		t.Errorf("key mismatch: %q", resp.Key)
	}
}

// TestDefaultsAgreeAcrossLayers: the service adds no default of its own.
// Zero wire options normalize to the package defaults, and a request that
// names no dfs_nodes is keyed as a library session given zero counts. The
// wire's empty strategy and scheduler name Broadcast and SchedEnsemble,
// where the zero Options hold SendRecv and SchedNaive, so both sides name
// those two.
func TestDefaultsAgreeAcrossLayers(t *testing.T) {
	named := resharding.Options{Strategy: resharding.Broadcast, Scheduler: resharding.SchedEnsemble}
	opts, err := NormalizedOptions(PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := named.WithDefaults(); opts != want {
		t.Errorf("NormalizedOptions(PlanOptions{}) = %+v, WithDefaults %+v", opts, want)
	}

	_, client := newTestServer(t, Config{})
	resp, err := client.PlanV2(context.Background(), testReq(0))
	if err != nil {
		t.Fatal(err)
	}
	task, _ := directTask(t, 0)
	key, _, err := resharding.NewPlanner().TaskKey(task, named)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Key != key {
		t.Errorf("served key %q, library session key %q", resp.Key, key)
	}
}

// TestPlanTranslatedHitRemapsDevices: a request served from an entry
// planned for a congruent boundary on different hosts must get sender
// devices in its own meshes — identical to planning it directly.
func TestPlanTranslatedHitRemapsDevices(t *testing.T) {
	s, client := newTestServer(t, Config{})
	ctx := context.Background()
	mk := func(srcMesh, dstMesh string) *PlanRequest {
		return &PlanRequest{
			Topology: TopologyRef{Name: "p3", Hosts: 4},
			Shape:    []int{64, 96},
			Src:      Endpoint{Mesh: srcMesh, Spec: "S01R"},
			Dst:      Endpoint{Mesh: dstMesh, Spec: "S0R"},
			Options:  PlanOptions{Seed: 1},
		}
	}
	// Populate the cache with the boundary on hosts 0-1...
	if _, err := client.PlanV2(ctx, mk("2x2@0", "2x2@4")); err != nil {
		t.Fatal(err)
	}
	// ...then request the congruent boundary on hosts 2-3.
	resp, err := client.PlanV2(ctx, mk("2x2@8", "2x2@12"))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("translated boundary must hit the cache: %+v", st)
	}
	for i, d := range resp.Senders {
		if d < 8 || d > 11 {
			t.Errorf("sender %d = device %d, not in the requested source mesh [8,11]", i, d)
		}
	}

	// And the remapped plan equals the direct path on the translated task.
	topo, err := mesh.DefaultRegistry().Build("p3", mesh.TopologyParams{Hosts: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, err := topo.Slice([]int{2, 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := topo.Slice([]int{2, 2}, 12)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sharding.NewTask(tensor.MustShape(64, 96), tensor.Float32,
		src, sharding.MustParse("S01R"), dst, sharding.MustParse("S0R"))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := NormalizedOptions(PlanOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := resharding.NewPlan(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct := make([]int, len(task.Units))
	for i := range direct {
		direct[i] = plan.SenderOf[i]
	}
	if !reflect.DeepEqual(resp.Senders, direct) {
		t.Errorf("translated hit: served senders %v, direct %v", resp.Senders, direct)
	}
	if !reflect.DeepEqual(resp.Order, plan.Order) {
		t.Errorf("translated hit: served order %v, direct %v", resp.Order, plan.Order)
	}
}

// TestPlanCoalescing pins the tentpole: N concurrent identical requests
// plan exactly once, and every response is identical.
func TestPlanCoalescing(t *testing.T) {
	const n = 64
	s, client := newTestServer(t, Config{})
	responses := make([]*PlanResponse, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := client.PlanV2(context.Background(), testReq(1))
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	close(start)
	wg.Wait()

	if st := s.Cache().Stats(); st.Misses != 1 {
		t.Errorf("duplicate-key burst must plan once: %+v", st)
	}
	for i, r := range responses {
		if r == nil {
			t.Fatalf("request %d failed", i)
		}
		if !reflect.DeepEqual(r.Senders, responses[0].Senders) ||
			!reflect.DeepEqual(r.Order, responses[0].Order) ||
			r.MakespanSeconds != responses[0].MakespanSeconds {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Plan.OK != n {
		t.Errorf("ok = %d, want %d", stats.Plan.OK, n)
	}
	// Coalesced + cache hits + the single planning pass account for all n.
	if int(stats.Plan.Coalesced)+s.Cache().Stats().Hits+1 != n {
		t.Errorf("accounting: %d coalesced + %d hits + 1 miss != %d",
			stats.Plan.Coalesced, s.Cache().Stats().Hits, n)
	}
}

// TestBackpressure429 pins admission control: with the pool and queue
// full, a new search is rejected immediately with 429 + Retry-After, and
// the pool recovers once drained.
func TestBackpressure429(t *testing.T) {
	s, client := newTestServer(t, Config{PlanWorkers: 1, PlanQueue: 1})
	// Fill every queue token; requests now fail fast at admission.
	for i := 0; i < cap(s.plan.queue); i++ {
		s.plan.queue <- struct{}{}
	}
	_, err := client.PlanV2(context.Background(), searchedReq(t, 1))
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("want OverloadedError, got %v", err)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("Retry-After hint missing: %+v", over)
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Plan.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", stats.Plan.Rejected)
	}

	// Drain; the same request now succeeds.
	for i := 0; i < cap(s.plan.queue); i++ {
		<-s.plan.queue
	}
	if _, err := client.PlanV2(context.Background(), searchedReq(t, 1)); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestServedLRUBound pins the memory-flatness property end to end: a
// small-capacity server absorbing many distinct requests keeps its cache
// at the bound.
func TestServedLRUBound(t *testing.T) {
	const capacity = 4
	s, client := newTestServer(t, Config{Cache: resharding.NewLRUPlanCache(capacity)})
	for seed := int64(1); seed <= 5*capacity; seed++ {
		if _, err := client.PlanV2(context.Background(), testReq(seed)); err != nil {
			t.Fatal(err)
		}
		if st := s.Cache().Stats(); st.Entries > capacity {
			t.Fatalf("entries %d > capacity %d", st.Entries, capacity)
		}
	}
	st := s.Cache().Stats()
	if st.Evictions == 0 {
		t.Error("distinct-key flood must evict")
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Entries != st.Entries || stats.Cache.Evictions != st.Evictions || stats.Cache.Capacity != capacity {
		t.Errorf("stats endpoint disagrees with cache: %+v vs %+v", stats.Cache, st)
	}
}

// TestAutotuneMatchesDirectPath: the served grid search returns the same
// winner and trials as resharding.AutotuneContext.
func TestAutotuneMatchesDirectPath(t *testing.T) {
	_, client := newTestServer(t, Config{})
	resp, err := client.AutotuneV2(context.Background(), &AutotuneRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 2},
		Shape:    []int{64, 96},
		Src:      Endpoint{Mesh: "2x2@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x2@4", Spec: "S0R"},
		Options:  PlanOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	task, opts := directTask(t, 1)
	direct, err := resharding.AutotuneContext(context.Background(), task, resharding.AutotuneOptions{Base: opts})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BestIndex != direct.BestIndex {
		t.Errorf("best index: served %d, direct %d", resp.BestIndex, direct.BestIndex)
	}
	if resp.Winner != direct.Trials[direct.BestIndex].Candidate.String() {
		t.Errorf("winner: served %q, direct %q", resp.Winner, direct.Trials[direct.BestIndex].Candidate)
	}
	if resp.MakespanSeconds != direct.BestSim.Makespan {
		t.Errorf("makespan: served %g, direct %g", resp.MakespanSeconds, direct.BestSim.Makespan)
	}
	if len(resp.Trials) != len(direct.Trials) {
		t.Fatalf("trials: %d vs %d", len(resp.Trials), len(direct.Trials))
	}
	for i := range resp.Trials {
		if resp.Trials[i].MakespanSeconds != direct.Trials[i].Makespan {
			t.Errorf("trial %d: %g vs %g", i, resp.Trials[i].MakespanSeconds, direct.Trials[i].Makespan)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	cases := []struct {
		name string
		req  *PlanRequest
	}{
		{"unknown topology", &PlanRequest{Topology: TopologyRef{Name: "nope"}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"}}},
		{"bad mesh", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"}}},
		{"bad spec", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2@0", Spec: "Q"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"}}},
		{"bad dtype", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}, Shape: []int{4, 4}, DType: "int8",
			Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"}}},
		{"bad strategy", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"},
			Options: PlanOptions{Strategy: "teleport"}}},
		{"unbounded trials", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"},
			Options: PlanOptions{Trials: MaxTrials + 1}}},
		{"unbounded dfs", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"},
			Options: PlanOptions{DFSNodes: MaxDFSNodes + 1}}},
		{"unbounded hosts", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 1 << 30}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"}}},
		{"overlapping meshes", &PlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}, Shape: []int{4, 4},
			Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@0", Spec: "S0R"}}},
	}
	for _, tc := range cases {
		_, err := client.PlanV2(ctx, tc.req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Errorf("%s: want 400, got %v", tc.name, err)
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Plan.Errors != int64(len(cases)) {
		t.Errorf("errors = %d, want %d", stats.Plan.Errors, len(cases))
	}
	if len(stats.Topologies) == 0 {
		t.Error("stats must list topologies")
	}
}

// TestIntakeBackpressure: the parse stage has its own gate, so even
// requests that never reach a worker pool are bounded and rejected with
// 429 when it overflows — before their body is decoded. A body the memo
// knows, whose plan is cached, asks no gate and is still served.
func TestIntakeBackpressure(t *testing.T) {
	s, client := newTestServer(t, Config{})
	fill := func() {
		for i := 0; i < cap(s.intake.queue); i++ {
			s.intake.queue <- struct{}{}
		}
	}
	fill()
	_, err := client.PlanV2(context.Background(), testReq(1))
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("want OverloadedError from the intake gate, got %v", err)
	}
	if n := s.planC.snapshot().Decoded; n != 0 {
		t.Errorf("the gate refused a body after decoding it (decoded = %d)", n)
	}
	for i := 0; i < cap(s.intake.queue); i++ {
		<-s.intake.queue
	}
	if _, err := client.PlanV2(context.Background(), testReq(1)); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	fill()
	if _, err := client.PlanV2(context.Background(), testReq(1)); err != nil {
		t.Errorf("a memoized hit behind a full intake gate: %v", err)
	}
}

// TestFlightGroupSurvivesPanic: a panicking leader must release the key
// and wake its waiters with an error, not poison the key forever.
func TestFlightGroupSurvivesPanic(t *testing.T) {
	var g flightGroup
	leaderIn := make(chan struct{})
	waiterErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("the panic must propagate to the leader's caller")
			}
		}()
		g.do(context.Background(), "k", func() (interface{}, error) {
			close(leaderIn)
			panic("boom")
		})
	}()
	go func() {
		defer wg.Done()
		<-leaderIn
		_, err, _ := g.do(context.Background(), "k", func() (interface{}, error) {
			// May run if the leader already unwound; that is fine — the
			// key must be free again.
			return "fresh", nil
		})
		waiterErr <- err
	}()
	wg.Wait()
	if err := <-waiterErr; err != nil && err.Error() != "service: in-flight call panicked" {
		t.Errorf("waiter got %v", err)
	}
	// The key is released: a later call computes normally.
	v, err, shared := g.do(context.Background(), "k", func() (interface{}, error) { return 42, nil })
	if err != nil || shared || v != 42 {
		t.Errorf("post-panic call: v=%v err=%v shared=%v", v, err, shared)
	}
}

// doneSpy is a live context that reports when a flight waiter first asks
// for its Done channel — the moment it has joined a flight.
type doneSpy struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (c *doneSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// TestFlightGroupWaiterRetriesCancelledLeader: a waiter whose own context
// is live does not inherit the context error of a leader that was
// cancelled — its call was never attempted — but retries and leads a
// fresh flight.
func TestFlightGroupWaiterRetriesCancelledLeader(t *testing.T) {
	var g flightGroup
	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.do(leaderCtx, "k", func() (interface{}, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-leaderIn
	spy := &doneSpy{Context: context.Background(), joined: make(chan struct{})}
	type result struct {
		v      interface{}
		err    error
		shared bool
	}
	waiter := make(chan result, 1)
	go func() {
		v, err, shared := g.do(spy, "k", func() (interface{}, error) { return "fresh", nil })
		waiter <- result{v, err, shared}
	}()
	<-spy.joined
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	if r := <-waiter; r.err != nil || r.v != "fresh" || r.shared {
		t.Fatalf("live waiter got v=%v err=%v shared=%v, want its own fresh result", r.v, r.err, r.shared)
	}
}

// TestTopologyCacheSharesInstances: repeated requests for one preset reuse
// the built topology.
func TestTopologyCacheSharesInstances(t *testing.T) {
	var tc topologyCache
	reg := mesh.DefaultRegistry()
	a, err := tc.get(reg, TopologyRef{Name: "mixed", Hosts: 3, Oversubscription: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tc.get(reg, TopologyRef{Name: "mixed", Hosts: 3, Oversubscription: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same ref must return the same topology instance")
	}
	c, err := tc.get(reg, TopologyRef{Name: "mixed", Hosts: 3, Oversubscription: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different oversubscription must build a different topology")
	}
	// Name normalization: case/whitespace variants share the memo slot.
	d, err := tc.get(reg, TopologyRef{Name: " MIXED ", Hosts: 3, Oversubscription: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if d != a {
		t.Error("case/whitespace variants of one preset must share the memo slot")
	}
}

// BenchmarkServedPlanCached measures the cached-lookup hot path through
// the full HTTP stack (the loadgen steady state).
func BenchmarkServedPlanCached(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := NewClient(ts.URL, nil)
	req := testReq(1)
	if _, err := client.PlanV2(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.PlanV2(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServedPlanDistinct measures the planning path: every request a
// fresh key against a bounded cache, i.e. the eviction steady state.
func BenchmarkServedPlanDistinct(b *testing.B) {
	s := New(Config{Cache: resharding.NewLRUPlanCache(64)})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := NewClient(ts.URL, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.PlanV2(context.Background(), testReq(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExitStatsCountMisses: /v2/stats counts each plan computed here by the
// candidate its ensemble ended at — the exit resharding reports for the
// same problem — and a hit counts nothing.
func TestExitStatsCountMisses(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	want := ExitStats{}
	for _, req := range []*PlanRequest{testReq(1), searchedReq(t, 2)} {
		task, opts, _, err := New(Config{}).ParsePlanRequest(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := resharding.NewPlan(task, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := plan.Report
		switch r.Exit {
		case schedule.ExitNaive:
			want.Naive++
		case schedule.ExitLPT:
			want.LPT++
		case schedule.ExitWitness:
			want.Witness++
		case schedule.ExitTarget:
			want.Target++
		case schedule.ExitGreedy:
			want.Greedy++
		case schedule.ExitDFS:
			want.DFS++
		default:
			t.Fatalf("ensemble plan reports exit %v", r.Exit)
		}
		if !r.Proven {
			want.Unproven++
		}
		want.TargetNodes += int64(r.TargetNodes)
		want.DFSNodes += int64(r.DFSNodes)
		want.GreedyTrials += int64(r.GreedyTrials)
		for i := 0; i < 2; i++ { // a miss, then a hit
			if _, err := client.PlanV2(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exits != want {
		t.Fatalf("exit counters %+v, want %+v", stats.Exits, want)
	}
	if want.Naive+want.LPT+want.Witness == 2 {
		t.Fatal("both fixtures end in ClosedForm: the searched one no longer searches")
	}
}
