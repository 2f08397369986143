package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

func wireTestPlan() PlanResponse {
	return PlanResponse{
		Strategy:        "broadcast",
		Scheduler:       "ensemble",
		NumUnits:        4,
		Senders:         []int{0, 1, 2, 3},
		Order:           []int{3, 1, 0, 2},
		MakespanSeconds: 0.0123,
		EffectiveGbps:   87.5,
		NumOps:          12,
		Key:             "t=[64 96]/fp32;s=[2 2]/S01R@0.0;o=1/2/0/0/50000/0/7",
	}
}

func TestBinaryPlanRoundTrip(t *testing.T) {
	for _, coalesced := range []bool{false, true} {
		want := wireTestPlan()
		want.Coalesced = coalesced
		frame := appendPlanBinary(nil, &want)
		v, err := decodeBinary(frame)
		if err != nil {
			t.Fatalf("coalesced=%v: %v", coalesced, err)
		}
		got, ok := v.(*PlanResponse)
		if !ok {
			t.Fatalf("decoded %T, want *PlanResponse", v)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("coalesced=%v: round trip changed the plan:\n got %+v\nwant %+v", coalesced, *got, want)
		}
		// Re-encoding the decoded value must reproduce the frame exactly.
		if !bytes.Equal(appendPlanBinary(nil, got), frame) {
			t.Errorf("coalesced=%v: re-encoded frame differs", coalesced)
		}
	}
}

func TestBinaryAutotuneRoundTrip(t *testing.T) {
	want := AutotuneResponse{
		Winner:          "broadcast/ensemble",
		BestIndex:       2,
		MakespanSeconds: 0.5,
		EffectiveGbps:   12.25,
		Coalesced:       true,
		Trials: []AutotuneTrial{
			{Candidate: "send-recv/naive", MakespanSeconds: 1.5, EffectiveGbps: 4},
			{Candidate: "broadcast/dfs", Err: "budget exhausted"},
		},
	}
	frame := appendAutotuneBinary(nil, &want)
	v, err := decodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*AutotuneResponse)
	if !ok {
		t.Fatalf("decoded %T, want *AutotuneResponse", v)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", *got, want)
	}
	if !bytes.Equal(appendAutotuneBinary(nil, got), frame) {
		t.Error("re-encoded frame differs")
	}
}

func TestBinaryErrorRoundTrip(t *testing.T) {
	want := V2Error{Code: CodeOverloaded, Message: "queue full", Retryable: true, RetryAfterSeconds: 3}
	frame := appendErrorBinary(nil, &want)
	v, err := decodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*V2Error)
	if !ok {
		t.Fatalf("decoded %T, want *V2Error", v)
	}
	if *got != want {
		t.Errorf("round trip changed the envelope: got %+v want %+v", *got, want)
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	plan := wireTestPlan()
	want := BatchPlanResponse{
		Distinct:  1,
		Coalesced: 1,
		Items: []BatchPlanItemResult{
			{Plan: &plan},
			{Error: &V2Error{Code: CodeInvalidArgument, Message: "item 1: bad src mesh"}},
		},
	}
	frame := appendBatchBinary(nil, &want)
	v, err := decodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*BatchPlanResponse)
	if !ok {
		t.Fatalf("decoded %T, want *BatchPlanResponse", v)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("round trip changed the batch:\n got %+v\nwant %+v", *got, want)
	}
	if !bytes.Equal(appendBatchBinary(nil, got), frame) {
		t.Error("re-encoded frame differs")
	}
}

// TestBinaryDecodeRejectsMalformed exercises the decoder's failure paths:
// every malformed input must produce an error, never a panic and never a
// huge allocation.
func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	plan := wireTestPlan()
	good := appendPlanBinary(nil, &plan)
	cases := map[string][]byte{
		"empty":           {},
		"short magic":     good[:3],
		"bad magic":       append([]byte("XXXX"), good[4:]...),
		"unknown kind":    {'A', 'P', 'B', '1', 99},
		"truncated body":  good[:12],
		"truncated array": good[:binPlanSendersOff+2],
		"trailing bytes":  append(append([]byte{}, good...), 0),
	}
	// A frame that advertises a giant sender array must fail on the bound
	// check, not allocate.
	huge := append([]byte{}, good...)
	putU32(huge[binPlanSendersOff-4:], 1<<31-1)
	cases["oversized array count"] = huge

	for name, data := range cases {
		if _, err := decodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// directTaskAt builds the testReq boundary on a p3 cluster of the given
// host count, with the source/destination meshes at arbitrary device
// offsets — congruent placements share a cache key, so two offsets give an
// identity task and a translated one.
func directTaskAt(t *testing.T, hosts, srcOff, dstOff int, seed int64) (*sharding.Task, resharding.Options) {
	t.Helper()
	topo, err := mesh.DefaultRegistry().Build("p3", mesh.TopologyParams{Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	src, err := topo.Slice([]int{2, 2}, srcOff)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := topo.Slice([]int{2, 2}, dstOff)
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

// planResponse is the reference rendering of a plan for one request, built
// per request the way the service did before serialize-once fills: on a
// translated cache hit (or a coalesced flight joined with congruent but
// differently-placed meshes) the shared plan's devices belong to the first
// task planned under the key and are remapped into this request's meshes.
func planResponse(plan *resharding.Plan, sim *resharding.SimResult,
	task *sharding.Task, opts resharding.Options, cacheKey string, shared bool) PlanResponse {
	return PlanResponse{
		Strategy:        opts.Strategy.String(),
		Scheduler:       opts.Scheduler.String(),
		NumUnits:        len(task.Units),
		Senders:         remapSenders(plan, task),
		Order:           plan.Order,
		MakespanSeconds: sim.Makespan,
		EffectiveGbps:   sim.EffectiveGbps,
		NumOps:          sim.NumOps,
		Key:             cacheKey,
		Degraded:        opts.Scheduler == resharding.SchedDegraded,
		Coalesced:       shared,
	}
}

// remapSenders translates a (possibly cached) plan's sender devices into
// the requesting task's source mesh. Tasks sharing a cache key have
// congruent meshes — same shape, same host-relative layout — so the
// sender for unit i is the device at the same logical mesh position. When
// the plan was computed for this very task, the mapping is the identity.
func remapSenders(plan *resharding.Plan, task *sharding.Task) []int {
	senders := make([]int, len(task.Units))
	if plan.Task == task {
		for i := range senders {
			senders[i] = plan.SenderOf[i]
		}
		return senders
	}
	pos := make(map[int]int, len(plan.Task.Src.Mesh.Devices))
	for idx, d := range plan.Task.Src.Mesh.Devices {
		pos[d] = idx
	}
	for i := range senders {
		senders[i] = task.Src.Mesh.Devices[pos[plan.SenderOf[i]]]
	}
	return senders
}

// TestServedBodiesMatchPerRequestEncoding pins the serialize-once
// invariant: the segment-assembled bodies the hit path writes are
// byte-identical to encoding the per-request response struct — across the
// identity, coalesced and translated-sender cases, in both wire formats.
func TestServedBodiesMatchPerRequestEncoding(t *testing.T) {
	task, opts := directTaskAt(t, 4, 0, 4, 7)
	transTask, _ := directTaskAt(t, 4, 8, 12, 7)
	key := resharding.CacheKey(task, opts)
	if tk := resharding.CacheKey(transTask, opts); tk != key {
		t.Fatalf("translated task must share the cache key: %q vs %q", tk, key)
	}

	s := New(Config{})
	enc, shared, err := s.computePlan(context.Background(), key, task, opts, nil, nil, false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared || enc == nil {
		t.Fatalf("fill: shared=%v enc=%v", shared, enc)
	}
	plan, sim, _, ok := s.cache.LookupKeyedAttachment(key)
	if !ok {
		t.Fatal("fill left no cache entry")
	}

	for _, tc := range []struct {
		name   string
		task   *sharding.Task
		shared bool
	}{
		{"identity", task, false},
		{"identity coalesced", task, true},
		{"translated", transTask, false},
		{"translated coalesced", transTask, true},
	} {
		resp := planResponse(plan, sim, tc.task, opts, key, tc.shared)
		wantJSON, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := enc.appendJSON(nil, tc.task, tc.shared); !bytes.Equal(got, wantJSON) {
			t.Errorf("%s json:\n got %s\nwant %s", tc.name, got, wantJSON)
		}
		wantBin := appendPlanBinary(nil, &resp)
		if got := enc.appendBinary(nil, tc.task, tc.shared); !bytes.Equal(got, wantBin) {
			t.Errorf("%s binary: served frame differs from per-request frame", tc.name)
		}
	}
}

// TestEncodedPlanRejectsNaN: a simulation encoding/json cannot render is an
// error at fill time, not a plan served some other way.
func TestEncodedPlanRejectsNaN(t *testing.T) {
	task, opts := directTaskAt(t, 4, 0, 4, 7)
	plan, err := resharding.NewPlan(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim := &resharding.SimResult{Makespan: math.NaN()}
	key := resharding.CacheKey(task, opts)
	if enc, err := newEncodedPlan(plan, sim, opts, key); err == nil || enc != nil {
		t.Fatalf("NaN makespan: enc=%v err=%v, want an error", enc, err)
	}

	// Cached without its bodies, the entry fails the request that finds it
	// with the ordinary envelope.
	s := New(Config{})
	s.cache.Install(key, plan, sim)
	req := &PlanRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 4},
		Shape:    []int{64, 96},
		Src:      Endpoint{Mesh: "2x2@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x2@4", Spec: "S0R"},
		Options:  PlanOptions{Seed: 7},
	}
	for i := 0; i < 2; i++ {
		got := send(s, mustJSON(t, req), "")
		var env V2ErrorEnvelope
		if err := json.Unmarshal([]byte(got.body), &env); err != nil || got.status != http.StatusUnprocessableEntity || env.Error.Code != CodeUnplannable {
			t.Errorf("send %d of a request whose cached plan cannot be encoded: %d %s, want 422 %s", i, got.status, got.body, CodeUnplannable)
		}
	}
}

// TestBinaryServedMatchesJSONServed serves the same request over both wire
// formats through the real handler and asserts the decoded responses are
// identical.
func TestBinaryServedMatchesJSONServed(t *testing.T) {
	_, jsonClient := newTestServer(t, Config{})
	binClient := NewClient(jsonClient.base, nil, WithBinary())
	ctx := context.Background()

	jr, err := jsonClient.PlanV2(ctx, testReq(5))
	if err != nil {
		t.Fatal(err)
	}
	br, err := binClient.PlanV2(ctx, testReq(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jr, br) {
		t.Errorf("wire formats disagree:\n json %+v\n bin  %+v", jr, br)
	}

	ja, err := jsonClient.AutotuneV2(ctx, &AutotuneRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 2},
		Shape:    []int{64, 96},
		Src:      Endpoint{Mesh: "2x2@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x2@4", Spec: "S0R"},
		Options:  PlanOptions{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := binClient.AutotuneV2(ctx, &AutotuneRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 2},
		Shape:    []int{64, 96},
		Src:      Endpoint{Mesh: "2x2@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x2@4", Spec: "S0R"},
		Options:  PlanOptions{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Coalesced depends on request timing, not format; mask it.
	ja.Coalesced, ba.Coalesced = false, false
	if !reflect.DeepEqual(ja, ba) {
		t.Errorf("autotune wire formats disagree:\n json %+v\n bin  %+v", ja, ba)
	}

	batchReq := &BatchPlanRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 2},
		Items: []BatchPlanItem{
			{Shape: []int{64, 96}, Src: Endpoint{Mesh: "2x2@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"}, Options: PlanOptions{Seed: 5}},
			{Shape: []int{64, 96}, Src: Endpoint{Mesh: "2x2@0", Spec: "bogus"}, Dst: Endpoint{Mesh: "2x2@4", Spec: "S0R"}},
		},
	}
	jb, err := jsonClient.PlanBatch(ctx, batchReq)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := binClient.PlanBatch(ctx, batchReq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jb, bb) {
		t.Errorf("batch wire formats disagree:\n json %+v\n bin  %+v", jb, bb)
	}
	if jb.Items[1].Error == nil || jb.Items[1].Error.Code != CodeInvalidArgument {
		t.Errorf("item error: %+v", jb.Items[1].Error)
	}
}

// TestBinaryErrorEnvelope asserts a negotiated request gets its errors as
// binary frames the client decodes into the same APIError the JSON path
// yields.
func TestBinaryErrorEnvelope(t *testing.T) {
	_, jsonClient := newTestServer(t, Config{})
	binClient := NewClient(jsonClient.base, nil, WithBinary())
	ctx := context.Background()

	bad := testReq(1)
	bad.Src.Spec = "bogus"
	_, jerr := jsonClient.PlanV2(ctx, bad)
	_, berr := binClient.PlanV2(ctx, bad)
	japi, ok := jerr.(*APIError)
	if !ok {
		t.Fatalf("json error: %v", jerr)
	}
	bapi, ok := berr.(*APIError)
	if !ok {
		t.Fatalf("binary error: %v", berr)
	}
	if *japi != *bapi {
		t.Errorf("error envelopes disagree:\n json %+v\n bin  %+v", *japi, *bapi)
	}
	if bapi.Code != CodeInvalidArgument {
		t.Errorf("code = %q, want %q", bapi.Code, CodeInvalidArgument)
	}
}

// TestServedHitAllocations pins the serve path of a repeated request: a
// cache hit through the real handler makes at most maxHitAllocs allocations
// in both wire formats. This request measures 0; it measured 20 while
// every hit ran encoding/json, and the ceiling is the measurement, so
// that the decoder — or a PlanRequest, a memo-key rendering, a header
// value — cannot come back unnoticed.
// Skipped under the race detector, whose instrumentation inflates
// allocation counts.
func TestServedHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	const maxHitAllocs = 0
	for _, tc := range []struct {
		name   string
		accept string
	}{
		{"json", ""},
		{"binary", ContentTypeBinary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{})
			body, err := json.Marshal(testReq(9))
			if err != nil {
				t.Fatal(err)
			}
			rd := bytes.NewReader(body)
			req, err := http.NewRequest(http.MethodPost, "/v2/plan", struct {
				io.ReadSeeker
				io.Closer
			}{rd, io.NopCloser(nil)})
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			w := &statusOnlyWriter{h: http.Header{}}
			srv.ServeHTTP(w, req) // warm: fills cache, memo and wire bodies
			if w.status != http.StatusOK {
				t.Fatalf("warm request: status %d", w.status)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := rd.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				w.status = 0
				srv.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					t.Fatalf("status %d", w.status)
				}
			})
			if allocs > maxHitAllocs {
				t.Errorf("served cache hit: %.0f allocs/op, want <= %d", allocs, maxHitAllocs)
			}
		})
	}
}

// TestColdParseAllocations pins the allocations of a cold parse — a
// request's topology, meshes, decomposition and cache key
// (ParsePlanRequest, its memo cleared first) and its draft (NewDraft: the
// host-level instance) — on one request per topology family. The ceilings
// are one above the measured counts, so that per-device, per-unit or
// per-host bookkeeping cannot come back unnoticed. Skipped under the race
// detector, whose instrumentation inflates allocation counts.
func TestColdParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	for _, tc := range []struct {
		req       *PlanRequest
		maxAllocs float64
	}{
		{&PlanRequest{
			Topology: TopologyRef{Name: "p3", Hosts: 4},
			Shape:    []int{1024, 1024}, DType: "fp16",
			Src: Endpoint{Mesh: "2x4@0", Spec: "S01R"}, Dst: Endpoint{Mesh: "2x4@8", Spec: "RS0"},
			Options: PlanOptions{Seed: 1},
		}, 31},
		{&PlanRequest{
			Topology: TopologyRef{Name: "dgx-a100", Hosts: 2},
			Shape:    []int{512, 1024, 8},
			Src:      Endpoint{Mesh: "2x4@0", Spec: "S0RR"}, Dst: Endpoint{Mesh: "4x2@8", Spec: "RS01R"},
			Options: PlanOptions{Seed: 1},
		}, 30},
		{&PlanRequest{
			Topology: TopologyRef{Name: "mixed", Hosts: 4},
			Shape:    []int{256, 512},
			Src:      Endpoint{Mesh: "2x4@0", Spec: "S0S1"}, Dst: Endpoint{Mesh: "2x4@8", Spec: "S1R"},
			Options: PlanOptions{Seed: 1},
		}, 30},
	} {
		t.Run(tc.req.Topology.Name, func(t *testing.T) {
			srv := New(Config{})
			ctx := context.Background()
			allocs := testing.AllocsPerRun(100, func() {
				clear(srv.reqMemo.fields)
				task, opts, _, err := srv.ParsePlanRequest(ctx, tc.req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := resharding.NewDraft(task, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("cold parse and draft: %.0f allocs/op", allocs)
			if allocs > tc.maxAllocs {
				t.Errorf("cold parse and draft: %.0f allocs/op, want <= %.0f", allocs, tc.maxAllocs)
			}
		})
	}
}

// peerOwnsEverything is the Router of a tier node that owns no key and whose
// peer must not be asked: what a miss the closed-form candidates prove should
// see of the tier.
type peerOwnsEverything struct{ t *testing.T }

func (peerOwnsEverything) Route(string) (string, bool) { return "peer", false }
func (r peerOwnsEverything) Fetch(context.Context, string, string, *PlanRequest, *sharding.Task, resharding.Options) (*resharding.Plan, *resharding.SimResult, error) {
	r.t.Error("a proven miss was fetched from its owner")
	return nil, nil, errors.New("no peer")
}
func (peerOwnsEverything) Info() ClusterNodeStats { return ClusterNodeStats{} }

// TestServedMissAllocationsIgnoreOwnership: a proven miss on a tier node that
// does not own the key allocates no more than the same miss on a node that
// does — the draft that decided the route is the draft the fill finishes, so
// nothing of phase one runs twice, and no fetch is made. Two keys alternate
// through a one-entry cache, so every call is a miss.
func TestServedMissAllocationsIgnoreOwnership(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	ctx := context.Background()
	missAllocs := func(router Router) float64 {
		srv := New(Config{Cache: resharding.NewLRUPlanCache(1)})
		if router != nil {
			srv.SetRouter(router)
		}
		seed := int64(0)
		miss := func() {
			seed = 1 - seed
			req := testReq(seed)
			task, opts, key, err := srv.ParsePlanRequest(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := srv.computePlan(ctx, key, task, opts, nil, req, false, "", nil); err != nil {
				t.Fatal(err)
			}
		}
		miss()
		miss()
		before := srv.cache.Stats().Misses
		allocs := testing.AllocsPerRun(20, miss)
		if misses := srv.cache.Stats().Misses - before; misses != 21 { // AllocsPerRun warms up once
			t.Fatalf("%d of 21 calls missed the cache", misses)
		}
		return allocs
	}
	owned, nonOwned := missAllocs(nil), missAllocs(peerOwnsEverything{t})
	if nonOwned > owned {
		t.Errorf("a non-owned proven miss allocates %.0f objects, an owned one %.0f", nonOwned, owned)
	}
}

type statusOnlyWriter struct {
	h      http.Header
	status int
}

func (s *statusOnlyWriter) Header() http.Header         { return s.h }
func (s *statusOnlyWriter) WriteHeader(c int)           { s.status = c }
func (s *statusOnlyWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestBinaryFrameOnFirstUse: a fill renders only the JSON body; the first
// binary requests, arriving together, render the frame once between them
// and all serve the same bytes.
func TestBinaryFrameOnFirstUse(t *testing.T) {
	s := New(Config{})
	body := mustJSON(t, testReq(5))
	r := send(s, body, "")
	if r.status != http.StatusOK {
		t.Fatalf("fill: status %d: %s", r.status, r.body)
	}
	var resp PlanResponse
	if err := json.Unmarshal([]byte(r.body), &resp); err != nil {
		t.Fatal(err)
	}
	_, _, att, ok := s.cache.LookupKeyedAttachment(resp.Key)
	enc, _ := att.(*encodedPlan)
	if !ok || enc == nil {
		t.Fatal("filled entry has no encoded bodies")
	}
	if enc.bin.Load() != nil {
		t.Fatal("a JSON fill rendered the binary frame")
	}
	const n = 8
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = send(s, body, ContentTypeBinary).body
		}(i)
	}
	wg.Wait()
	want := string(appendPlanBinary(nil, &resp))
	for i, got := range bodies {
		if got != want {
			t.Fatalf("binary hit %d served %q, want %q", i, got, want)
		}
	}
}
