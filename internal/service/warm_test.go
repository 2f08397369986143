package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// A link brownout never changes the host-level instance, so a warm replan
// must serve it in identity mode.
var brownoutFaults = &FaultsRef{Links: []LinkFaultRef{{A: 0, B: 1, BandwidthScale: 0.5}}}

// searchedFaulty is searchedReq with a fault overlay: only a miss that must
// search is handed its fault-free twin.
func searchedFaulty(t testing.TB, seed int64, faults *FaultsRef) *PlanRequest {
	req := searchedReq(t, seed)
	req.Faults = faults
	return mustSearch(t, req)
}

// TestV2PlanWarmServesFromHealthyTwin: once a boundary's healthy plan is
// cached, a degraded request for the same boundary is filled by the warm
// replan path — visible in /v2/stats' replan counters — and serves bytes
// identical to what a cold fill on a fresh server produces.
func TestV2PlanWarmServesFromHealthyTwin(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	if _, err := client.PlanV2(ctx, searchedReq(t, 5)); err != nil {
		t.Fatal(err)
	}
	warm, err := client.PlanV2(ctx, searchedFaulty(t, 5, brownoutFaults))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replan.WarmIdentity != 1 {
		t.Errorf("warm_identity = %d, want 1 (link brownout never changes the host instance)",
			stats.Replan.WarmIdentity)
	}
	if stats.Replan.Cold != 0 {
		t.Errorf("cold = %d, want 0 (the healthy twin was cached)", stats.Replan.Cold)
	}

	// The same degraded request on a fresh server — no healthy twin cached —
	// fills cold, and must produce the same bytes the warm path served.
	_, coldClient := newTestServer(t, Config{})
	cold, err := coldClient.PlanV2(ctx, searchedFaulty(t, 5, brownoutFaults))
	if err != nil {
		t.Fatal(err)
	}
	coldStats, err := coldClient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Replan.Cold != 1 {
		t.Errorf("fresh server: cold = %d, want 1", coldStats.Replan.Cold)
	}
	if warm.Key != cold.Key {
		t.Errorf("warm and cold fills keyed apart: %q vs %q", warm.Key, cold.Key)
	}
	if !reflect.DeepEqual(warm.Senders, cold.Senders) || !reflect.DeepEqual(warm.Order, cold.Order) {
		t.Error("warm-served degraded plan differs from the cold fill")
	}
	if warm.MakespanSeconds != cold.MakespanSeconds {
		t.Errorf("warm makespan %.9f != cold %.9f", warm.MakespanSeconds, cold.MakespanSeconds)
	}
}

// TestV2PlanWarmSearchOnHostFault: a straggler overlay changes the host
// instance, so the fill plans it with the cold ensemble — counted as a
// search replan, never a rejection or a cold step — and serves the bytes a
// server without the healthy twin serves.
func TestV2PlanWarmSearchOnHostFault(t *testing.T) {
	s, client := newTestServer(t, Config{})
	ctx := context.Background()

	if _, err := client.PlanV2(ctx, searchedReq(t, 7)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(searchedFaulty(t, 7, stragglerFaults))
	if err != nil {
		t.Fatal(err)
	}
	got := servePlanBytes(t, s, body, "")
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replan.WarmSearch != 1 || stats.Replan.WarmRejected != 0 {
		t.Errorf("warm_search = %d, warm_rejected = %d, want 1 (host fault impacts the instance) and 0",
			stats.Replan.WarmSearch, stats.Replan.WarmRejected)
	}
	if stats.Replan.Cold != 0 {
		t.Errorf("cold = %d, want 0", stats.Replan.Cold)
	}
	if want := servePlanBytes(t, New(Config{}), body, ""); !bytes.Equal(got, want) {
		t.Errorf("served after the healthy twin:\n%s\na cold server:\n%s", got, want)
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
// answer byte for byte alike in both wire formats. The two straggler
// requests are ones whose pinned warm search used to pick a different
// launch order than the cold plan; the link-down one replans by identity.
func TestV2PlanFaultedAnswerIgnoresCacheState(t *testing.T) {
	for _, tc := range []struct{ name, healthy, faults string }{
		{"mixed-3-straggler", `{"topology":{"name":"mixed","hosts":3,"oversubscription":1.5},"shape":[384,48],"dtype":"fp32","src":{"mesh":"2x4@0","spec":"S01R"},"dst":{"mesh":"2x4@12","spec":"S1R"},"options":{"seed":9}`, `"straggler"`},
		{"mixed-3-straggler-3d", `{"topology":{"name":"mixed","hosts":3,"oversubscription":2},"shape":[384,48,8],"dtype":"fp32","src":{"mesh":"2x3@0","spec":"S0S1R"},"dst":{"mesh":"3x2@12","spec":"S0S1R"},"options":{"seed":457}`, `"straggler"`},
		{"mixed-3-link-down", `{"topology":{"name":"mixed","hosts":3,"oversubscription":1.5},"shape":[384,48],"dtype":"fp32","src":{"mesh":"2x4@0","spec":"S01R"},"dst":{"mesh":"2x4@12","spec":"S1R"},"options":{"seed":9}`, `"link-down"`},
	} {
		healthy := []byte(tc.healthy + "}")
		faulted := []byte(tc.healthy + `,"faults":{"scenario":` + tc.faults + "}}")
		for _, accept := range []string{"", ContentTypeBinary} {
			name := tc.name + "/" + strings.TrimPrefix(accept, "application/")
			afterTwin := New(Config{})
			servePlanBytes(t, afterTwin, healthy, accept)
			got := servePlanBytes(t, afterTwin, faulted, accept)
			if st := afterTwin.planner.ReplanStats(); st.Cold+st.WarmInvalid != 0 {
				t.Fatalf("%s: replan counters %+v, want the faulted fill to use its twin", name, st)
			}
			alone := servePlanBytes(t, New(Config{}), faulted, accept)
			if !bytes.Equal(got, alone) {
				t.Errorf("%s: served after the healthy twin:\n%q\nserved alone:\n%q", name, got, alone)
			}
			twice := New(Config{})
			servePlanBytes(t, twice, faulted, accept)
			if again := servePlanBytes(t, twice, faulted, accept); !bytes.Equal(again, alone) {
				t.Errorf("%s: second answer:\n%q\nfirst answer of a fresh server:\n%q", name, again, alone)
			}
		}
	}
}
