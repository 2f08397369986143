package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A link brownout never changes the host-level instance; a straggler does.
var brownoutFaults = &FaultsRef{Links: []LinkFaultRef{{A: 0, B: 1, BandwidthScale: 0.5}}}

// searchedFaulty is searchedReq with a fault overlay: a miss that must
// search, like its fault-free twin's.
func searchedFaulty(t testing.TB, seed int64, faults *FaultsRef) *PlanRequest {
	req := searchedReq(t, seed)
	req.Faults = faults
	return mustSearch(t, req)
}

// TestV2PlanFaultedMissCountsNoHit: once a boundary's healthy plan is
// cached, a faulted request for the same boundary is a miss that plans
// from its own request. /v2/stats must count it as one miss and no hit:
// nothing was served from the cache, whatever it holds for the twin.
func TestV2PlanFaultedMissCountsNoHit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		faults *FaultsRef
	}{{"brownout", 5, brownoutFaults}, {"straggler", 7, stragglerFaults}} {
		_, client := newTestServer(t, Config{})
		ctx := context.Background()
		if _, err := client.PlanV2(ctx, searchedReq(t, tc.seed)); err != nil {
			t.Fatal(err)
		}
		before, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.PlanV2(ctx, searchedFaulty(t, tc.seed, tc.faults)); err != nil {
			t.Fatal(err)
		}
		after, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if hits := after.Cache.Hits - before.Cache.Hits; hits != 0 {
			t.Errorf("%s: the faulted miss moved cache.hits %d -> %d, want no hit", tc.name, before.Cache.Hits, after.Cache.Hits)
		}
		if misses := after.Cache.Misses - before.Cache.Misses; misses != 1 {
			t.Errorf("%s: the faulted miss counted %d misses, want 1", tc.name, misses)
		}
	}
}

// servePlanBytes posts one /v2/plan body through the handler and returns
// the 200 response's bytes in the format accept negotiates.
func servePlanBytes(t *testing.T, s *Server, body []byte, accept string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v2/plan", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}

// TestV2PlanFaultedAnswerIgnoresCacheState: a faulted request's bytes are a
// function of the request alone. A server that planned the healthy twin
// first, one that sees only the faulted request and one asked twice must
// answer byte for byte alike in both wire formats. Every input searches.
// The two mixed straggler requests are ones whose warm search, when a
// faulted miss still reused its twin's plan, picked a different launch
// order than the cold plan; the searched pairs are searchedReq under a
// brownout and a straggler.
func TestV2PlanFaultedAnswerIgnoresCacheState(t *testing.T) {
	type input struct {
		name             string
		healthy, faulted []byte
	}
	var inputs []input
	for _, tc := range []struct{ name, healthy, faults string }{
		{"mixed-3-straggler", `{"topology":{"name":"mixed","hosts":3,"oversubscription":1.5},"shape":[384,48],"dtype":"fp32","src":{"mesh":"2x4@0","spec":"S01R"},"dst":{"mesh":"2x4@12","spec":"S1R"},"options":{"seed":9}`, `"straggler"`},
		{"mixed-3-straggler-3d", `{"topology":{"name":"mixed","hosts":3,"oversubscription":2},"shape":[384,48,8],"dtype":"fp32","src":{"mesh":"2x3@0","spec":"S0S1R"},"dst":{"mesh":"3x2@12","spec":"S0S1R"},"options":{"seed":457}`, `"straggler"`},
		{"mixed-3-link-down", `{"topology":{"name":"mixed","hosts":3,"oversubscription":1.5},"shape":[384,48],"dtype":"fp32","src":{"mesh":"2x4@0","spec":"S01R"},"dst":{"mesh":"2x4@12","spec":"S1R"},"options":{"seed":9}`, `"link-down"`},
	} {
		inputs = append(inputs, input{tc.name, []byte(tc.healthy + "}"), []byte(tc.healthy + `,"faults":{"scenario":` + tc.faults + "}}")})
	}
	for _, tc := range []struct {
		name   string
		seed   int64
		faults *FaultsRef
	}{{"searched-brownout", 5, brownoutFaults}, {"searched-straggler", 7, stragglerFaults}} {
		healthy, err := json.Marshal(searchedReq(t, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := json.Marshal(searchedFaulty(t, tc.seed, tc.faults))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{tc.name, healthy, faulted})
	}
	for _, tc := range inputs {
		for _, accept := range []string{"", ContentTypeBinary} {
			name := tc.name + "/" + strings.TrimPrefix(accept, "application/")
			afterTwin := New(Config{})
			servePlanBytes(t, afterTwin, tc.healthy, accept)
			got := servePlanBytes(t, afterTwin, tc.faulted, accept)
			alone := servePlanBytes(t, New(Config{}), tc.faulted, accept)
			if !bytes.Equal(got, alone) {
				t.Errorf("%s: served after the healthy twin:\n%q\nserved alone:\n%q", name, got, alone)
			}
			twice := New(Config{})
			servePlanBytes(t, twice, tc.faulted, accept)
			if again := servePlanBytes(t, twice, tc.faulted, accept); !bytes.Equal(again, alone) {
				t.Errorf("%s: second answer:\n%q\nfirst answer of a fresh server:\n%q", name, again, alone)
			}
		}
	}
}
