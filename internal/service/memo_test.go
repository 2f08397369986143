package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"alpacomm/internal/mesh"
)

// Tests of the body-keyed parse memo (handlePlanV2's fast path): whatever
// it serves is what a server that never saw the request serves, only what
// the decoder and the parser accepted gets in, and the bookkeeping around
// a hit is the bookkeeping a hit always had.

// served is everything of a response a client can see.
type served struct {
	status      int
	contentType string
	admission   string
	body        string
}

// send posts one raw body to /v2/plan in process; accept "" is JSON.
func send(s *Server, body []byte, accept string, hdr ...string) served {
	req := httptest.NewRequest(http.MethodPost, "/v2/plan", bytes.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return served{rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get(AdmissionHeader), rec.Body.String()}
}

func memoBodies(s *Server) int {
	_, nb := memoSizes(s)
	return nb
}

// memoSizes counts the entries of the memo's two key spaces.
func memoSizes(s *Server) (fields, bodies int) {
	i := s.reqMemo.mu.RLock()
	defer s.reqMemo.mu.RUnlock(i)
	return len(s.reqMemo.fields), len(s.reqMemo.bodies)
}

func mustJSON(t testing.TB, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// padTo appends spaces — trailing whitespace the decoder never looks at —
// until the body is n bytes long.
func padTo(b []byte, n int) []byte {
	return append(append([]byte(nil), b...), bytes.Repeat([]byte{' '}, n-len(b))...)
}

// TestMemoServedMatchesFreshServer is the differential the memo is held
// to: on every registry preset and every spelling of a request — accepted,
// rejected, faulted, oversized — a long-lived server's first, second and
// third answer equal, byte for byte and in both wire formats, the answer of
// a server that has never seen a request; and the memo grows by exactly the
// bodies it may hold: every accepted body up to the admission size, faulted
// or not, admitted once.
func TestMemoServedMatchesFreshServer(t *testing.T) {
	long := New(Config{})
	for _, preset := range mesh.DefaultRegistry().Names() {
		req := &PlanRequest{
			Topology: TopologyRef{Name: preset, Hosts: 4},
			Shape:    []int{64, 96},
			Src:      Endpoint{Mesh: "2x2@0", Spec: "S01R"},
			Dst:      Endpoint{Mesh: "2x2@8", Spec: "S0R"},
			Options:  PlanOptions{Seed: 5, Chunks: 4},
		}
		compact := mustJSON(t, req)
		indented, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		reordered := []byte(fmt.Sprintf(`{"options":{"chunks":4,"seed":5},"dst":{"spec":"S0R","mesh":"2x2@8"},`+
			`"src":{"spec":"S01R","mesh":"2x2@0"},"shape":[64,96],"topology":{"hosts":4,"name":%q}}`, preset))
		withField := func(field string) []byte {
			return append(append([]byte(nil), compact[:len(compact)-1]...), (field + "}")...)
		}
		faulted := *req
		faulted.Faults = stragglerFaults

		rows := []struct {
			name     string
			body     []byte
			status   int
			admitted bool
		}{
			{"compact", compact, 200, true},
			{"indented", indented, 200, true},
			{"reordered", reordered, 200, true},
			{"trailing newline", append(append([]byte(nil), compact...), '\n'), 200, true},
			{"trailing garbage", append(append([]byte(nil), compact...), "]]nonsense"...), 200, true},
			{"empty faults", withField(`,"faults":{}`), 200, true},
			{"faulted", mustJSON(t, &faulted), 200, true},
			{"unknown field", withField(`,"preset":"p3"`), 400, false},
			{"truncated", compact[:len(compact)/2], 400, false},
			{"bad spec", bytes.Replace(compact, []byte("S01R"), []byte("S01Q"), 1), 400, false},
			{"over the body limit", padTo(compact, maxBodyBytes+1), 400, false},
			{"over the admission size", padTo(compact, maxMemoBody+1), 200, false},
			{"at the admission size", padTo(compact, maxMemoBody), 200, true},
		}
		for _, row := range rows {
			before := memoBodies(long)
			for _, accept := range []string{"", ContentTypeBinary} {
				want := send(New(Config{}), row.body, accept)
				if want.status != row.status {
					t.Fatalf("%s/%s: a fresh server answers %d, want %d: %s", preset, row.name, want.status, row.status, want.body)
				}
				for n := 1; n <= 3; n++ {
					if got := send(long, row.body, accept); got != want {
						t.Errorf("%s/%s (accept %q): send %d to the long-lived server diverges from a fresh server\n got %d %s %q\nwant %d %s %q",
							preset, row.name, accept, n, got.status, got.contentType, got.body, want.status, want.contentType, want.body)
					}
				}
			}
			grew := memoBodies(long) - before
			if row.admitted && grew != 1 {
				t.Errorf("%s/%s: six sends of one admissible body added %d memo entries, want 1", preset, row.name, grew)
			}
			if !row.admitted && grew != 0 {
				t.Errorf("%s/%s: a body the memo must never hold added %d entries", preset, row.name, grew)
			}
		}

		// Two spellings of one request are two entries, one parse.
		a, okA := long.reqMemo.getBody(compact)
		b, okB := long.reqMemo.getBody(indented)
		if !okA || !okB || a.task != b.task || a.key != b.key || a.opts != b.opts {
			t.Errorf("%s: compact and indented bodies do not share one parse (found %v/%v)", preset, okA, okB)
		}
	}
}

// TestParseMemoStartsOverAtCap: a memo full of one-off requests still
// admits the next hot key — at the bound a key space starts over instead of
// refusing forever — and neither key space ever exceeds the bound.
func TestParseMemoStartsOverAtCap(t *testing.T) {
	s := New(Config{})
	post := func(seed int64) {
		t.Helper()
		if got := send(s, mustJSON(t, testReq(seed)), ""); got.status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, got.status, got.body)
		}
		nf, nb := memoSizes(s)
		if nf > maxMemoEntries || nb > maxMemoEntries {
			t.Fatalf("after seed %d the memo holds %d field and %d body entries, bound %d", seed, nf, nb, maxMemoEntries)
		}
	}
	for seed := int64(0); seed < maxMemoEntries; seed++ {
		post(seed)
	}
	if n := memoBodies(s); n != maxMemoEntries {
		t.Fatalf("%d one-off requests left %d body entries", maxMemoEntries, n)
	}
	post(maxMemoEntries)
	decoded := s.planC.snapshot().Decoded
	post(maxMemoEntries)
	if got := s.planC.snapshot().Decoded; got != decoded {
		t.Errorf("the repeat of a request that arrived at a full memo ran the decoder (decoded %d -> %d)", decoded, got)
	}
	r := testReq(maxMemoEntries)
	if _, ok := s.reqMemo.get(r.Topology, r.Shape, r.DType, r.Src, r.Dst, r.Options); !ok {
		t.Error("the fields memo did not admit a request that arrived at the bound")
	}
}

// countingClock counts the controller's clock reads: Admit and Observe
// read it once each.
type countingClock struct {
	clk   *fakeClock
	reads int
}

func (c *countingClock) now() time.Time {
	c.reads++
	return c.clk.now()
}

// errorReader fails the test when the handler reads the request body.
type errorReader struct{ t *testing.T }

func (r errorReader) Read([]byte) (int, error) {
	r.t.Error("the body of a request with the wrong method was read")
	return 0, fmt.Errorf("unreadable")
}

// TestMemoHitKeepsControllerAndHeaderParity: a hit recognized by its body
// is still a request — the controller admits and observes it once each, it
// is served in every admission mode, a bad deadline header is still a 400,
// the method is still checked before the body is read, and the endpoint
// counters move as they did when every hit was decoded; decoded counts the
// requests that were.
func TestMemoHitKeepsControllerAndHeaderParity(t *testing.T) {
	s := New(Config{})
	clk := &countingClock{clk: newFakeClock()}
	ctl := slowSLOConfig().controller(clk.now)
	s.slo = ctl
	body := mustJSON(t, testReq(1))

	warm := send(s, body, "")
	if warm.status != http.StatusOK {
		t.Fatalf("warm request: %d %s", warm.status, warm.body)
	}
	const hits = 10
	reads := clk.reads
	for i := 0; i < hits; i++ {
		if got := send(s, body, ""); got != warm {
			t.Fatalf("hit %d diverges from the fill: %+v", i, got)
		}
	}
	if got := clk.reads - reads; got != 2*hits {
		t.Errorf("%d memoized hits read the controller clock %d times, want one Admit and one Observe each", hits, got)
	}
	ctl.Admit(0) // re-evaluate so the snapshot counts the last sample too
	if got := ctl.Snapshot().WindowSamples; got != 1+hits {
		t.Errorf("window holds %d samples after 1 fill and %d hits", got, hits)
	}

	forceMode(t, ctl, AdmitShed, 11*time.Second)
	if got := send(s, body, ""); got != warm {
		t.Errorf("a memoized full-quality hit in shed mode: %+v, want the fill's answer", got)
	}
	if got := send(s, body, "", TimeoutHeader, "250"); got != warm {
		t.Errorf("a memoized hit with a deadline: %+v, want the fill's answer", got)
	}

	bad := send(s, body, "", TimeoutHeader, "abc")
	var env V2ErrorEnvelope
	if err := json.Unmarshal([]byte(bad.body), &env); err != nil || bad.status != http.StatusBadRequest || env.Error.Code != CodeInvalidArgument {
		t.Errorf("memoized body with %s: abc: %d %s, want 400 %s", TimeoutHeader, bad.status, bad.body, CodeInvalidArgument)
	}
	if fresh := send(New(Config{}), body, "", TimeoutHeader, "abc"); fresh != bad {
		t.Errorf("bad deadline header on a memoized body: %+v, a fresh server answers %+v", bad, fresh)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/plan", errorReader{t}))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/plan: status %d, want 405", rec.Code)
	}

	// 1 fill + 10 hits + 2 more hits + the 400 + the 405.
	want := EndpointStats{Requests: hits + 5, OK: hits + 3, Errors: 2, MissesProven: 1, Decoded: 1}
	if got := s.planC.snapshot(); got != want {
		t.Errorf("plan counters %+v, want %+v", got, want)
	}

	// A hit holds no plan-pool token, so however many arrive at once on an
	// idle pool the controller stays at full quality.
	s.slo = slowSLOConfig().controller(newFakeClock().now)
	concurrent := 4 * s.slo.poolCap
	got := make([]served, concurrent)
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
		if g != warm {
			t.Errorf("concurrent memoized hit %d: %+v, want the fill's answer", i, g)
		}
	}
	if st := s.slo.Snapshot(); st.Mode != "full" || st.Degrades != 0 {
		t.Errorf("controller mode %s after %d concurrent memoized hits (%d degrades), want full", st.Mode, concurrent, st.Degrades)
	}
}

// TestMemoServesRepeatedFaultedBody: a faulted body is admitted like any
// other, so its repeat is served without decoding — plan.decoded does not
// move — and with the bytes a fresh server answers, in both wire formats,
// under every kind of overlay. Two bodies that differ only in their
// scenario are two parses with two keys.
func TestMemoServesRepeatedFaultedBody(t *testing.T) {
	base := &PlanRequest{
		Topology: TopologyRef{Name: "mixed", Hosts: 3, Oversubscription: 1.5},
		Shape:    []int{384, 48},
		Src:      Endpoint{Mesh: "2x4@0", Spec: "S01R"},
		Dst:      Endpoint{Mesh: "2x4@12", Spec: "S1R"},
		Options:  PlanOptions{Seed: 9},
	}
	keys := map[string]string{}
	for _, faults := range []*FaultsRef{
		{Scenario: "brownout"}, {Scenario: "straggler"}, {Scenario: "link-down"},
		brownoutFaults, stragglerFaults,
	} {
		req := *base
		req.Faults = faults
		body := mustJSON(t, &req)
		name := string(mustJSON(t, faults))
		for _, accept := range []string{"", ContentTypeBinary} {
			want := send(New(Config{}), body, accept)
			if want.status != http.StatusOK {
				t.Fatalf("%s: a fresh server answers %d: %s", name, want.status, want.body)
			}
			s := New(Config{})
			if first := send(s, body, accept); first != want {
				t.Fatalf("%s (accept %q): first answer diverges from a fresh server", name, accept)
			}
			decoded := s.planC.snapshot().Decoded
			for n := 2; n <= 3; n++ {
				if got := send(s, body, accept); got != want {
					t.Errorf("%s (accept %q): send %d diverges from a fresh server\n got %+v\nwant %+v", name, accept, n, got, want)
				}
			}
			if got := s.planC.snapshot().Decoded; got != decoded {
				t.Errorf("%s (accept %q): two repeats of a faulted body ran the decoder (decoded %d -> %d)", name, accept, decoded, got)
			}
			pr, ok := s.reqMemo.getBody(body)
			if !ok {
				t.Fatalf("%s: the faulted body is not in the memo", name)
			}
			if faults.Scenario != "" {
				keys[faults.Scenario] = pr.key
			}
		}
	}
	if keys["brownout"] == keys["straggler"] || keys["straggler"] == keys["link-down"] || keys["brownout"] == keys["link-down"] {
		t.Errorf("bodies differing only in scenario share a key: %q", keys)
	}
}

// TestMemoKeySeparatesHostsFromOversubscription: the fields memo's key
// keeps hosts and oversubscription apart, so {mixed, hosts 21} is not
// answered with the parse of {mixed, hosts 2, oversubscription 10} — through
// ParsePlanRequest or through a /v2/plan body the body memo does not know —
// and every answer equals a fresh server's.
func TestMemoKeySeparatesHostsFromOversubscription(t *testing.T) {
	req := func(hosts int, oversub float64) *PlanRequest {
		return &PlanRequest{
			Topology: TopologyRef{Name: "mixed", Hosts: hosts, Oversubscription: oversub},
			Shape:    []int{64, 96},
			Src:      Endpoint{Mesh: "2x2@0", Spec: "S01R"},
			Dst:      Endpoint{Mesh: "2x2@4", Spec: "S0R"},
			Options:  PlanOptions{Seed: 1},
		}
	}
	first, second := req(2, 10), req(21, 0)
	ctx := context.Background()
	freshKey := func(r *PlanRequest) string {
		_, _, key, err := New(Config{}).ParsePlanRequest(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}

	s := New(Config{})
	if _, _, _, err := s.ParsePlanRequest(ctx, first); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*PlanRequest{second, first} {
		_, _, key, err := s.ParsePlanRequest(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshKey(r); key != want {
			t.Errorf("ParsePlanRequest(hosts %d, oversubscription %g) after the other: key %q, a fresh server's %q",
				r.Topology.Hosts, r.Topology.Oversubscription, key, want)
		}
	}

	s = New(Config{})
	for _, r := range []*PlanRequest{first, second, first} {
		body := mustJSON(t, r)
		if got, want := send(s, body, ""), send(New(Config{}), body, ""); got != want {
			t.Errorf("/v2/plan (hosts %d, oversubscription %g): long-lived server\n got %+v\nfresh server\n %+v",
				r.Topology.Hosts, r.Topology.Oversubscription, got, want)
		}
	}
}
