package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alpacomm/internal/resharding"
)

// Server-level admission tests: degraded responses are flagged on the
// wire, partition under their own cache keys, and are never served to a
// client that required full quality. The controller runs on a fakeClock
// with huge latency budgets, so the real (microsecond) serve latencies the
// handler observes can never move the state machine — only the scripted
// samples do.

// slowSLOConfig is the server-test controller config: a 10s budget keeps
// real latencies irrelevant, the hour-long window and dwell freeze the
// forced mode, and the pool is New(Config{})'s, which these tests never
// fill.
func slowSLOConfig() sloTestConfig {
	w, q := planPoolSize(0, 0)
	return sloTestConfig{
		budget:    10 * time.Second,
		sloTiming: sloTiming{window: time.Hour, minSamples: 4, dwell: time.Hour, evalEvery: -1},
		poolCap:   w + q,
	}
}

func newSLOTestServer(t *testing.T, cfg sloTestConfig) (*Client, *SLOController, *fakeClock, string) {
	t.Helper()
	s := New(Config{})
	clk := newFakeClock()
	ctl := cfg.controller(clk.now)
	s.slo = ctl
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, nil), ctl, clk, ts.URL
}

// forceMode drives the controller into the target mode with scripted
// observations; lat should sit in the target's latency band.
func forceMode(t *testing.T, ctl *SLOController, target AdmissionMode, lat time.Duration) {
	t.Helper()
	observeN(ctl, 32, lat)
	for i := 0; i < 2 && ctl.Mode() != target; i++ {
		ctl.Admit(0)
	}
	if got := ctl.Mode(); got != target {
		t.Fatalf("could not force mode %v, controller is %v", target, got)
	}
}

// rawPlanV2 posts the request without the client wrapper so the test can
// read the admission header off the raw response.
func rawPlanV2(t *testing.T, url string, req *PlanRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestDegradedPartitionAndQuality walks a server through
// full→degraded→shed and pins the satellite-4 contract at each step:
// degraded responses are flagged and keyed apart, full-quality cache
// entries stay clean and servable, and "quality":"full" clients are shed
// rather than answered with a degraded plan.
func TestDegradedPartitionAndQuality(t *testing.T) {
	client, ctl, _, url := newSLOTestServer(t, slowSLOConfig())
	ctx := context.Background()

	// Healthy baseline: full-quality plan, no degraded flag.
	respFull, err := client.PlanV2(ctx, searchedReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if respFull.Degraded {
		t.Fatal("healthy response marked degraded")
	}

	forceMode(t, ctl, AdmitDegraded, 8*time.Second)

	// A miss in degraded mode is planned by the search-free scheduler,
	// flagged, and keyed apart from every full-quality entry.
	respD, err := client.PlanV2(ctx, searchedReq(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !respD.Degraded {
		t.Fatal("degraded-mode miss not marked degraded")
	}
	if respD.Scheduler != "greedy-degraded" {
		t.Fatalf("degraded scheduler = %q, want greedy-degraded", respD.Scheduler)
	}
	if respD.Key == respFull.Key {
		t.Fatalf("degraded plan shares the full-quality cache key %q", respD.Key)
	}

	// Degraded fills normalize the search knobs away: another seed of the
	// same boundary lands on the same degraded key.
	respD2, err := client.PlanV2(ctx, searchedReq(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !respD2.Degraded || respD2.Key != respD.Key {
		t.Fatalf("degraded twin key = %q (degraded=%v), want shared key %q",
			respD2.Key, respD2.Degraded, respD.Key)
	}

	// The wire surfaces the decision: admission header on a degraded
	// response.
	raw := rawPlanV2(t, url, searchedReq(t, 2))
	if got := raw.Header.Get(AdmissionHeader); got != "degraded" {
		t.Fatalf("%s = %q on degraded response, want degraded", AdmissionHeader, got)
	}

	// A full-quality cache hit is served untouched whatever the mode.
	hit, err := client.PlanV2(ctx, searchedReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Degraded || hit.Key != respFull.Key {
		t.Fatalf("cached full-quality hit degraded=%v key=%q, want clean %q",
			hit.Degraded, hit.Key, respFull.Key)
	}

	// A client that requires full quality is never answered degraded: an
	// uncached boundary is shed...
	reqFullQ := searchedReq(t, 4)
	reqFullQ.Options.Quality = "full"
	var oe *OverloadedError
	if _, err := client.PlanV2(ctx, reqFullQ); !errors.As(err, &oe) {
		t.Fatalf("quality=full miss under degrade: err = %v, want OverloadedError", err)
	}

	// ...but its cached full-quality entry is still served.
	reqFullQ1 := searchedReq(t, 1)
	reqFullQ1.Options.Quality = "full"
	hitFullQ, err := client.PlanV2(ctx, reqFullQ1)
	if err != nil {
		t.Fatal(err)
	}
	if hitFullQ.Degraded || hitFullQ.Key != respFull.Key {
		t.Fatalf("quality=full cache hit degraded=%v key=%q, want clean %q",
			hitFullQ.Degraded, hitFullQ.Key, respFull.Key)
	}

	// Shed mode: cached degraded plans still flow to clients that accept
	// them...
	forceMode(t, ctl, AdmitShed, 11*time.Second)
	shedHit, err := client.PlanV2(ctx, searchedReq(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !shedHit.Degraded || shedHit.Key != respD.Key {
		t.Fatalf("shed-mode degraded hit degraded=%v key=%q, want %q",
			shedHit.Degraded, shedHit.Key, respD.Key)
	}

	// ...while a boundary cached nowhere is rejected with the structured
	// overloaded envelope and a Retry-After.
	fresh := searchedReq(t, 6)
	fresh.Shape = []int{128, 128, 16}
	mustSearch(t, fresh)
	if _, err := client.PlanV2(ctx, fresh); !errors.As(err, &oe) {
		t.Fatalf("shed-mode miss: err = %v, want OverloadedError", err)
	}
	rawShed := rawPlanV2(t, url, fresh)
	if rawShed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", rawShed.StatusCode)
	}
	if got := rawShed.Header.Get(AdmissionHeader); got != "shed" {
		t.Fatalf("%s = %q on shed response, want shed", AdmissionHeader, got)
	}
	if rawShed.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// The stats block accounts for all of it.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a := stats.Admission
	if a == nil {
		t.Fatal("stats missing admission block")
	}
	if a.Mode != "shed" {
		t.Fatalf("admission mode = %q, want shed", a.Mode)
	}
	if a.DegradedServed < 3 || a.ShedRequests < 2 || a.FullQualityShed < 1 {
		t.Fatalf("admission counters = %d/%d/%d served/shed/full-shed, want ≥ 3/2/1",
			a.DegradedServed, a.ShedRequests, a.FullQualityShed)
	}
	if len(a.Transitions) == 0 {
		t.Fatal("admission stats missing transition log")
	}
}

// TestDegradedRecoveryRestoresFullQuality pins the back edge: once the
// window drains and the dwell passes, the same boundary that was planned
// degraded is re-planned at full quality under its original key.
func TestDegradedRecoveryRestoresFullQuality(t *testing.T) {
	cfg := slowSLOConfig()
	cfg.window = 100 * time.Millisecond
	cfg.dwell = 50 * time.Millisecond
	client, ctl, clk, _ := newSLOTestServer(t, cfg)
	ctx := context.Background()

	forceMode(t, ctl, AdmitDegraded, 8*time.Second)
	respD, err := client.PlanV2(ctx, searchedReq(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !respD.Degraded {
		t.Fatal("degraded-mode plan not marked degraded")
	}

	// The scripted samples age out of the 100ms window and the dwell
	// passes: the next request recovers to full and plans at full quality.
	clk.advance(time.Second)
	respF, err := client.PlanV2(ctx, searchedReq(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Mode() != AdmitFull {
		t.Fatalf("controller mode after recovery = %v, want full", ctl.Mode())
	}
	if respF.Degraded || respF.Scheduler == "greedy-degraded" {
		t.Fatalf("post-recovery plan degraded=%v scheduler=%q, want full quality",
			respF.Degraded, respF.Scheduler)
	}
	if respF.Key == respD.Key {
		t.Fatal("post-recovery plan served from the degraded cache entry")
	}
}

// TestDegradedBinaryFlag pins the wire parity: the degraded flag survives
// the binary frame and the binary body matches the JSON body.
func TestDegradedBinaryFlag(t *testing.T) {
	s := New(Config{})
	clk := newFakeClock()
	ctl := slowSLOConfig().controller(clk.now)
	s.slo = ctl
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	jsonClient := NewClient(ts.URL, nil)
	binClient := NewClient(ts.URL, nil, WithBinary())
	ctx := context.Background()

	forceMode(t, ctl, AdmitDegraded, 8*time.Second)
	respJSON, err := jsonClient.PlanV2(ctx, searchedReq(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	respBin, err := binClient.PlanV2(ctx, searchedReq(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !respJSON.Degraded || !respBin.Degraded {
		t.Fatalf("degraded flag json=%v bin=%v, want true/true", respJSON.Degraded, respBin.Degraded)
	}
	if respBin.Key != respJSON.Key || respBin.Scheduler != respJSON.Scheduler {
		t.Fatalf("binary response diverges: key %q vs %q, scheduler %q vs %q",
			respBin.Key, respJSON.Key, respBin.Scheduler, respJSON.Scheduler)
	}
}

// TestPlanPoolRefusalIsAShed: with the controller on, a search the plan pool
// refuses is a shed like the controller's own — the 429 carries the
// admission header and counts in admission.shed_requests. A controller on
// this very pool goes degraded on the first Admit that sees it full, so the
// refusal is staged with one that degrades at the default pool's larger
// capacity, as when the pool fills between Admit and the search. Once
// degraded, a miss is planned search-free and takes no pool token, so the
// full pool serves it.
func TestPlanPoolRefusalIsAShed(t *testing.T) {
	s := New(Config{PlanWorkers: 1, PlanQueue: 1})
	s.slo = slowSLOConfig().controller(newFakeClock().now)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	for i := 0; i < cap(s.plan.queue); i++ {
		s.plan.queue <- struct{}{}
	}
	refused := func(req *PlanRequest, wantShed, wantFullShed int64) {
		t.Helper()
		resp := rawPlanV2(t, ts.URL, req)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if got := resp.Header.Get(AdmissionHeader); got != "shed" {
			t.Errorf("%s = %q on a pool-refused miss, want shed", AdmissionHeader, got)
		}
		if st := s.slo.Snapshot(); st.ShedRequests != wantShed || st.FullQualityShed != wantFullShed {
			t.Errorf("shed_requests = %d, full_quality_shed = %d, want %d and %d",
				st.ShedRequests, st.FullQualityShed, wantShed, wantFullShed)
		}
	}
	refused(searchedReq(t, 1), 1, 0)
	full := searchedReq(t, 2)
	full.Options.Quality = "full"
	refused(full, 2, 1)
	forceMode(t, s.slo, AdmitDegraded, 8*time.Second)
	if resp := rawPlanV2(t, ts.URL, searchedReq(t, 3)); resp.StatusCode != http.StatusOK || resp.Header.Get(AdmissionHeader) != "degraded" {
		t.Errorf("degraded miss behind a full pool: status %d, %s %q; want 200 and degraded",
			resp.StatusCode, AdmissionHeader, resp.Header.Get(AdmissionHeader))
	}
	if st := s.slo.Snapshot(); st.DegradedServed != 1 || st.ShedRequests != 2 {
		t.Errorf("degraded_served = %d, shed_requests = %d, want 1 and 2", st.DegradedServed, st.ShedRequests)
	}
}

// TestIntakeRefusalIsAShed: with the controller on, a /v2/plan the intake
// gate refuses is a shed like a pool or controller refusal — the 429
// carries the admission header and counts in admission.shed_requests. The
// gate refuses before the body is decoded, so a client's "quality":"full"
// is not known there and the shed is not counted as a full-quality one.
func TestIntakeRefusalIsAShed(t *testing.T) {
	cfg := SLOConfig{P99Budget: slowSLOConfig().budget}
	s := New(Config{SLO: &cfg})
	for i := 0; i < cap(s.intake.queue); i++ {
		s.intake.queue <- struct{}{}
	}
	full := testReq(1)
	full.Options.Quality = "full"
	got := send(s, mustJSON(t, full), "")
	if got.status != http.StatusTooManyRequests || got.admission != "shed" {
		t.Fatalf("intake-refused request: status %d, %s %q; want 429 and shed", got.status, AdmissionHeader, got.admission)
	}
	if st := s.slo.Snapshot(); st.ShedRequests != 1 || st.FullQualityShed != 0 {
		t.Errorf("shed_requests = %d, full_quality_shed = %d, want 1 and 0", st.ShedRequests, st.FullQualityShed)
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// misses counts the misses led on s, proven and searched.
func misses(s *Server) int64 {
	st := s.planC.snapshot()
	return st.MissesProven + st.MissesSearched
}

// holdWorker takes the plan pool's only worker slot, as a running
// computation would; the returned func gives it back.
func holdWorker(s *Server) (release func()) {
	s.plan.queue <- struct{}{}
	s.plan.slots <- struct{}{}
	return s.plan.release
}

// TestHerdDoesNotDegradeBystanders: the controller reads pool tokens, not
// requests. Forty identical cold requests arriving while the only worker
// is busy coalesce onto one queued computation, so they neither degrade
// nor shed anyone — themselves or a bystander with a different key.
func TestHerdDoesNotDegradeBystanders(t *testing.T) {
	cfg := SLOConfig{P99Budget: 10 * time.Second}
	s := New(Config{PlanWorkers: 1, PlanQueue: 7, SLO: &cfg})
	release := holdWorker(s)

	const herd = 40
	bystander := searchedReq(t, 2)
	bodies := [][]byte{mustJSON(t, bystander)}
	member := mustJSON(t, searchedReq(t, 1))
	for i := 0; i < herd; i++ {
		bodies = append(bodies, member)
	}
	got := make([]served, len(bodies))
	var wg sync.WaitGroup
	var done atomic.Int64
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			got[i] = send(s, body, "")
			done.Add(1)
		}(i, body)
	}
	// Release the worker only once every request has been admitted (or,
	// had any been refused, answered).
	waitUntil(t, "every request to be admitted", func() bool {
		return s.planC.snapshot().InFlight+done.Load() == int64(len(bodies))
	})
	release()
	wg.Wait()

	for i, g := range got {
		if g.status != http.StatusOK || g.admission != "" {
			t.Errorf("request %d: status %d, %s %q; want 200 with no admission header", i, g.status, AdmissionHeader, g.admission)
		}
	}
	if n := misses(s); n != 2 {
		t.Errorf("%d computations, want 2: one for the herd, one for the bystander", n)
	}
	if st := s.slo.Snapshot(); st.Mode != "full" || st.Degrades != 0 || st.ShedRequests != 0 {
		t.Errorf("controller mode %s, %d degrades, %d sheds; want full, 0, 0 (transitions %v)",
			st.Mode, st.Degrades, st.ShedRequests, st.Transitions)
	}
}

// TestBatchItemsFillThePoolTheControllerReads: batch items that must search
// take plan-pool tokens like /v2/plan searches, so a batch that fills the
// pool degrades the next /v2/plan search — which is then planned
// search-free, without the pool.
func TestBatchItemsFillThePoolTheControllerReads(t *testing.T) {
	cfg := SLOConfig{P99Budget: 10 * time.Second}
	s := New(Config{PlanWorkers: 1, PlanQueue: 1, SLO: &cfg})
	release := holdWorker(s)

	item := searchedReq(t, 1)
	batch := mustJSON(t, &BatchPlanRequest{Topology: item.Topology, Items: []BatchPlanItem{
		{Shape: item.Shape, Src: item.Src, Dst: item.Dst, Options: item.Options},
	}})
	batchStatus := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/plan:batch", bytes.NewReader(batch)))
		batchStatus <- rec.Code
	}()
	waitUntil(t, "the batch item to queue", func() bool { return len(s.plan.queue) == cap(s.plan.queue) })

	got := send(s, mustJSON(t, searchedReq(t, 2)), "")
	if got.status != http.StatusOK || got.admission != "degraded" {
		t.Errorf("/v2/plan behind a full pool: status %d, %s %q; want 200 and degraded", got.status, AdmissionHeader, got.admission)
	}
	if mode := s.slo.Mode(); mode != AdmitDegraded {
		t.Errorf("controller mode %v with batch items filling the pool, want degraded", mode)
	}
	release()
	if code := <-batchStatus; code != http.StatusOK {
		t.Errorf("batch: status %d, want 200", code)
	}
}

// TestProvenMissSkipsPoolAndVerdict: a miss whose draft the closed-form
// candidates prove is finished in phase one. It takes no plan-pool token,
// so a full pool serves it; the controller's verdict is not applied to it,
// so degraded and shed mode serve it at full quality — "quality":"full"
// included — without a header and without planning a degraded twin; a
// faulted one parses nothing but itself and counts no cache hit; and forty
// identical ones behind
// the full pool cost one computation.
func TestProvenMissSkipsPoolAndVerdict(t *testing.T) {
	s := New(Config{PlanWorkers: 1, PlanQueue: 1})
	s.slo = slowSLOConfig().controller(newFakeClock().now)
	for i := 0; i < cap(s.plan.queue); i++ {
		s.plan.queue <- struct{}{}
	}
	full := func(what string, req *PlanRequest) {
		t.Helper()
		got := send(s, mustJSON(t, req), "")
		var resp PlanResponse
		if err := json.Unmarshal([]byte(got.body), &resp); err != nil || got.status != http.StatusOK || got.admission != "" || resp.Degraded {
			t.Errorf("proven miss %s: status %d, %s %q, degraded %v; want 200, no header, full quality: %s",
				what, got.status, AdmissionHeader, got.admission, resp.Degraded, got.body)
		}
	}
	full("behind a full pool", testReq(1))
	forceMode(t, s.slo, AdmitDegraded, 8*time.Second)
	full("in degraded mode", testReq(2))
	fullOnly := testReq(3)
	fullOnly.Options.Quality = "full"
	full(`with "quality":"full" in degraded mode`, fullOnly)
	forceMode(t, s.slo, AdmitShed, 11*time.Second)
	full("in shed mode", testReq(4))

	memoFields := func() int {
		nf, _ := memoSizes(s)
		return nf
	}
	fields, hits := memoFields(), s.cache.Stats().Hits
	full("with a fault overlay", faultyReq(5, stragglerFaults))
	if memoFields() != fields || s.cache.Stats().Hits != hits {
		t.Errorf("a faulted proven miss parsed a fault-free request or counted a hit: fields memo %d -> %d, cache hits %d -> %d",
			fields, memoFields(), hits, s.cache.Stats().Hits)
	}

	task, opts, _, err := s.ParsePlanRequest(context.Background(), testReq(2))
	if err != nil {
		t.Fatal(err)
	}
	dOpts := degradeOptions(opts)
	if _, _, ok := s.cache.LookupKeyed(resharding.CacheKey(task, dOpts)); ok {
		t.Error("a proven miss in degraded mode planned a greedy-degraded entry")
	}
	if st := s.slo.Snapshot(); st.DegradedServed != 0 || st.ShedRequests != 0 {
		t.Errorf("degraded_served = %d, shed_requests = %d, want 0 and 0", st.DegradedServed, st.ShedRequests)
	}

	const herd = 40
	before := misses(s)
	body := mustJSON(t, testReq(6))
	got := make([]served, herd)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = send(s, body, "")
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g.status != http.StatusOK {
			t.Errorf("proven herd request %d: status %d: %s", i, g.status, g.body)
		}
	}
	if n := misses(s) - before; n != 1 {
		t.Errorf("a proven herd of %d cost %d computations, want 1", herd, n)
	}
}
