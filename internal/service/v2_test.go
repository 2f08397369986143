package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// postRaw posts a JSON body and returns status plus raw response bytes.
func postRaw(t *testing.T, url, path string, payload interface{}) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestRetiredV1Routes: the /v1 generation is gone — its three routes
// answer 404 from the mux, before any handler or endpoint counter.
func TestRetiredV1Routes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	for _, path := range []string{"/v1/plan", "/v1/autotune"} {
		if st, body := postRaw(t, ts.URL, path, testReq(3)); st != http.StatusNotFound {
			t.Errorf("POST %s: status %d body %s, want 404", path, st, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats: status %d, want 404", resp.StatusCode)
	}
	for name, c := range map[string]*stripedCounters{"plan": &s.planC, "autotune": &s.autotuneC, "batch": &s.batchC} {
		if got := c.snapshot(); got != (EndpointStats{}) {
			t.Errorf("%s counters moved on a retired route: %+v", name, got)
		}
	}
	if st := s.Cache().Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("a retired route reached the plan cache: %+v", st)
	}
}

// gptBoundaryBatch builds a batch shaped like a GPT pipeline job: pp
// stages on consecutive 2x2 meshes of a p3 cluster, every boundary
// resharding the same activation tensor — so all boundaries are congruent
// under host translation.
func gptBoundaryBatch(pp int) *BatchPlanRequest {
	req := &BatchPlanRequest{
		Topology: TopologyRef{Name: "p3", Hosts: pp},
	}
	for s := 0; s < pp-1; s++ {
		req.Items = append(req.Items, BatchPlanItem{
			Shape:   []int{64, 96},
			Src:     Endpoint{Mesh: fmt.Sprintf("2x2@%d", 4*s), Spec: "S01R"},
			Dst:     Endpoint{Mesh: fmt.Sprintf("2x2@%d", 4*(s+1)), Spec: "S0R"},
			Options: PlanOptions{Seed: 3},
		})
	}
	return req
}

// TestBatchMatchesSequentialV1 pins the acceptance criterion: every
// /v2/plan:batch item is byte-identical to the same boundary planned on
// its own via /v2/plan, while the batch costs at most one planner
// computation per congruent-boundary equivalence class. (The name predates
// the retirement of /v1, which the sequential side used to call.)
func TestBatchMatchesSequentialV1(t *testing.T) {
	s, client := newTestServer(t, Config{})
	const pp = 8
	req := gptBoundaryBatch(pp)

	batch, err := client.PlanBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != pp-1 {
		t.Fatalf("batch returned %d items, want %d", len(batch.Items), pp-1)
	}
	if batch.Distinct != 1 {
		t.Errorf("the %d congruent GPT boundaries should collapse to 1 class, got %d", pp-1, batch.Distinct)
	}
	// One planner computation total: one cache miss, everything else hits.
	if st := s.Cache().Stats(); st.Misses != 1 {
		t.Errorf("batch cost %d planner computations, want 1 (stats %+v)", st.Misses, st)
	}

	for i, item := range batch.Items {
		if item.Error != nil {
			t.Fatalf("item %d: %+v", i, item.Error)
		}
		single, err := client.PlanV2(context.Background(), &PlanRequest{
			Topology: req.Topology,
			Shape:    req.Items[i].Shape,
			DType:    req.Items[i].DType,
			Src:      req.Items[i].Src,
			Dst:      req.Items[i].Dst,
			Options:  req.Items[i].Options,
		})
		if err != nil {
			t.Fatalf("sequential /v2/plan %d: %v", i, err)
		}
		got, want := *item.Plan, *single
		got.Coalesced, want.Coalesced = false, false
		if !reflect.DeepEqual(got, want) {
			t.Errorf("item %d diverges from /v2/plan:\nbatch:  %+v\nsingle: %+v", i, got, want)
		}
	}

	// Distinct senders per boundary: the shared plan must be remapped into
	// each item's own meshes, not replayed verbatim.
	if reflect.DeepEqual(batch.Items[0].Plan.Senders, batch.Items[1].Plan.Senders) {
		t.Errorf("boundaries 0 and 1 report identical senders %v; translation remap is missing",
			batch.Items[0].Plan.Senders)
	}
}

// TestBatchPartialItemErrors: malformed items fail alone with a structured
// code while sibling items still plan.
func TestBatchPartialItemErrors(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := gptBoundaryBatch(3)
	req.Items[1].Src.Spec = "BOGUS"
	batch, err := client.PlanBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Items[0].Plan == nil || batch.Items[0].Error != nil {
		t.Errorf("healthy item 0 should plan, got %+v", batch.Items[0].Error)
	}
	if batch.Items[1].Error == nil || batch.Items[1].Error.Code != CodeInvalidArgument {
		t.Errorf("bogus item 1 should fail with %s, got %+v", CodeInvalidArgument, batch.Items[1])
	}
}

// TestBatchBounds: empty and oversized batches are rejected with the
// structured envelope.
func TestBatchBounds(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	st, body := postRaw(t, ts.URL, "/v2/plan:batch", &BatchPlanRequest{Topology: TopologyRef{Name: "p3", Hosts: 2}})
	if st != http.StatusBadRequest {
		t.Errorf("empty batch: status %d body %s", st, body)
	}
	var env V2ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeInvalidArgument {
		t.Errorf("empty batch envelope = %s (err %v)", body, err)
	}

	big := gptBoundaryBatch(3)
	for len(big.Items) <= MaxBatchItems {
		big.Items = append(big.Items, big.Items[0])
	}
	if st, body := postRaw(t, ts.URL, "/v2/plan:batch", big); st != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d body %s", st, body)
	}
}

// TestV2ErrorEnvelope: classification of bad method, bad body and
// unplannable requests into machine-readable codes.
func TestV2ErrorEnvelope(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v2/plan")
	if err != nil {
		t.Fatal(err)
	}
	var env V2ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != CodeMethodNotAllowed {
		t.Errorf("GET /v2/plan: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	bad := testReq(1)
	bad.Topology.Name = "no-such-fabric"
	st, body := postRaw(t, ts.URL, "/v2/plan", bad)
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	if st != http.StatusBadRequest || env.Error.Code != CodeInvalidArgument {
		t.Errorf("bad topology: status %d code %q", st, env.Error.Code)
	}
	if env.Error.Retryable {
		t.Error("invalid_argument must not be retryable")
	}
}

// TestStatsMethodNotAllowedEnvelope: a non-GET on /v2/stats answers with
// the structured envelope like every other /v2 endpoint, not a flat string.
func TestStatsMethodNotAllowedEnvelope(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	st, body := postRaw(t, ts.URL, "/v2/stats", struct{}{})
	var env V2ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("POST /v2/stats body %s is not a V2ErrorEnvelope: %v", body, err)
	}
	if st != http.StatusMethodNotAllowed || env.Error.Code != CodeMethodNotAllowed || env.Error.Message == "" {
		t.Errorf("POST /v2/stats: status %d envelope %+v", st, env.Error)
	}
}

// TestEncodeFailureEnvelope: a payload that cannot be encoded becomes a 500
// whose body is a well-formed V2ErrorEnvelope, and the client surfaces its
// code and message.
func TestEncodeFailureEnvelope(t *testing.T) {
	unencodable := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]interface{}{"bad": make(chan int)})
	})
	rec := httptest.NewRecorder()
	unencodable.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/stats", nil))
	var env V2ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("500 body %s is not a V2ErrorEnvelope: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != CodeInternal || env.Error.Message == "" || env.Error.Retryable {
		t.Errorf("encode failure: status %d envelope %+v", rec.Code, env.Error)
	}

	ts := httptest.NewServer(unencodable)
	t.Cleanup(ts.Close)
	_, err := NewClient(ts.URL, nil).Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError ||
		apiErr.Code != CodeInternal || apiErr.Message != env.Error.Message {
		t.Errorf("client saw %v, want a 500 APIError carrying %+v", err, env.Error)
	}
}

// TestV2DeadlineHeader: an absurdly small propagated budget fires before a
// heavy search completes and maps to 504/deadline_exceeded (retryable).
func TestV2DeadlineHeader(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	req := &AutotuneRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 4},
		Shape:    []int{64, 96},
		Src:      Endpoint{Mesh: "2x4@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x4@8", Spec: "RS0"},
		// A 16-unit boundary with the maximum DFS budget: far more search
		// than a 1ms deadline allows.
		Options: PlanOptions{Seed: 1, DFSNodes: MaxDFSNodes},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/autotune", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(TimeoutHeader, "1")
	start := time.Now()
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env V2ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || env.Error.Code != CodeDeadlineExceeded {
		t.Errorf("deadline: status %d envelope %+v", resp.StatusCode, env.Error)
	}
	if !env.Error.Retryable {
		t.Error("deadline_exceeded must be retryable")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline response took %v; the search was not aborted", elapsed)
	}

	// Bad header values are rejected up front.
	hreq2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/autotune", bytes.NewReader(body))
	hreq2.Header.Set("Content-Type", "application/json")
	hreq2.Header.Set(TimeoutHeader, "soon")
	resp2, err := http.DefaultClient.Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad %s header: status %d", TimeoutHeader, resp2.StatusCode)
	}
}

// TestClientDeadlinePropagation: a client ctx deadline reaches the server
// as X-Timeout-Ms and surfaces as a typed retryable APIError.
func TestClientDeadlinePropagation(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := client.AutotuneV2(ctx, &AutotuneRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 4},
		Shape:    []int{64, 96},
		Src:      Endpoint{Mesh: "2x4@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x4@8", Spec: "RS0"},
		Options:  PlanOptions{Seed: 1, DFSNodes: MaxDFSNodes},
	})
	if err == nil {
		t.Fatal("a 2ms budget cannot finish a maximum-budget grid search")
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		if apiErr.Code != CodeDeadlineExceeded || !apiErr.Retryable {
			t.Errorf("want retryable %s, got %+v", CodeDeadlineExceeded, apiErr)
		}
	}
	// err may also be the client-side context error if the local deadline
	// fired before the response; both are acceptable abort signals.
}
