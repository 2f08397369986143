package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// faultyReq is testReq with a straggler-host overlay attached.
func faultyReq(seed int64, faults *FaultsRef) *PlanRequest {
	req := testReq(seed)
	req.Faults = faults
	return req
}

var stragglerFaults = &FaultsRef{Hosts: []HostFaultRef{{Host: 1, NICScale: 0.5}}}

// TestV2PlanWithFaults: a /v2/plan request with a faults block plans
// against the degraded topology — slower than healthy, keyed apart from
// healthy, and cached separately.
func TestV2PlanWithFaults(t *testing.T) {
	s, client := newTestServer(t, Config{})
	ctx := context.Background()

	healthy, err := client.PlanV2(ctx, testReq(3))
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := client.PlanV2(ctx, faultyReq(3, stragglerFaults))
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Key == healthy.Key {
		t.Error("degraded and healthy requests share a cache key")
	}
	if degraded.MakespanSeconds <= healthy.MakespanSeconds {
		t.Errorf("halving host 1's NIC should slow the plan: degraded %g vs healthy %g",
			degraded.MakespanSeconds, healthy.MakespanSeconds)
	}
	if stats := s.Cache().Stats(); stats.Entries != 2 {
		t.Errorf("cache entries = %d, want 2 (healthy + degraded partitions)", stats.Entries)
	}
	// Re-requesting the degraded plan is a hit on the degraded entry.
	again, err := client.PlanV2(ctx, faultyReq(3, stragglerFaults))
	if err != nil {
		t.Fatal(err)
	}
	if again.Key != degraded.Key || again.MakespanSeconds != degraded.MakespanSeconds {
		t.Error("degraded re-request did not reuse the degraded entry")
	}
	// An empty faults block is the healthy request.
	empty, err := client.PlanV2(ctx, faultyReq(3, &FaultsRef{}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Key != healthy.Key {
		t.Error("empty faults block must be byte-identical to omitting it")
	}
}

// TestV2PlanFaultScenario: a named registry scenario resolves against the
// request's topology.
func TestV2PlanFaultScenario(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	req := testReq(3)
	req.Topology.Hosts = 4 // link-down needs a detour host
	req.Src.Mesh, req.Dst.Mesh = "2x2@0", "2x2@4"
	healthy, err := client.PlanV2(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, scenario := range []string{"link-down", "brownout", "straggler"} {
		dreq := *req
		dreq.Faults = &FaultsRef{Scenario: scenario}
		degraded, err := client.PlanV2(ctx, &dreq)
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		// The straggler scenario hits host 3 only, which this boundary
		// never touches — its key legitimately stays healthy. The other
		// scenarios degrade the involved hosts and must re-key.
		if scenario != "straggler" && degraded.Key == healthy.Key {
			t.Errorf("%s: degraded key equals healthy key", scenario)
		}
		if degraded.MakespanSeconds < healthy.MakespanSeconds {
			t.Errorf("%s: degraded makespan %g beats healthy %g", scenario, degraded.MakespanSeconds, healthy.MakespanSeconds)
		}
	}
}

// TestV2MalformedFaults: every malformed faults block fails with a
// structured invalid_argument envelope, not a 500 or a silent ignore.
func TestV2MalformedFaults(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	cases := []struct {
		name   string
		faults *FaultsRef
	}{
		{"unknown scenario", &FaultsRef{Scenario: "meteor-strike"}},
		{"host out of range", &FaultsRef{Hosts: []HostFaultRef{{Host: 99, NICScale: 0.5}}}},
		{"scale above one", &FaultsRef{Hosts: []HostFaultRef{{Host: 0, NICScale: 1.5}}}},
		{"no-op host fault", &FaultsRef{Hosts: []HostFaultRef{{Host: 0}}}},
		{"self link", &FaultsRef{Links: []LinkFaultRef{{A: 1, B: 1, Down: true}}}},
		{"down with scale", &FaultsRef{Links: []LinkFaultRef{{A: 0, B: 1, Down: true, BandwidthScale: 0.5}}}},
		{"negative latency", &FaultsRef{Links: []LinkFaultRef{{A: 0, B: 1, ExtraLatencySeconds: -1}}}},
		{"isolating down link", &FaultsRef{Links: []LinkFaultRef{{A: 0, B: 1, Down: true}}}}, // 2 hosts: no detour
		{"duplicate link", &FaultsRef{Links: []LinkFaultRef{{A: 0, B: 1, BandwidthScale: 0.5}, {A: 1, B: 0, BandwidthScale: 0.25}}}},
	}
	for _, c := range cases {
		status, body := postRaw(t, ts.URL, "/v2/plan", faultyReq(3, c.faults))
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, status, body)
			continue
		}
		var env V2ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: bad envelope: %v", c.name, err)
			continue
		}
		if env.Error.Code != CodeInvalidArgument {
			t.Errorf("%s: code = %q, want %q (message %q)", c.name, env.Error.Code, CodeInvalidArgument, env.Error.Message)
		}
		if !strings.Contains(env.Error.Message, "faults") && !strings.Contains(env.Error.Message, "fault") {
			t.Errorf("%s: message %q does not mention the faults block", c.name, env.Error.Message)
		}
	}

	// Oversized fault lists are rejected before validation work.
	big := &FaultsRef{}
	for i := 0; i < MaxFaultEntries+1; i++ {
		big.Hosts = append(big.Hosts, HostFaultRef{Host: i, NICScale: 0.5})
	}
	if status, _ := postRaw(t, ts.URL, "/v2/plan", faultyReq(3, big)); status != http.StatusBadRequest {
		t.Errorf("oversized faults block: status = %d, want 400", status)
	}
}

// TestV2BatchWithFaults: a degraded batch plans every boundary against
// the overlay, partitions from the healthy batch, and still collapses
// congruent items to one class.
func TestV2BatchWithFaults(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	mkBatch := func(faults *FaultsRef) *BatchPlanRequest {
		req := &BatchPlanRequest{
			Topology: TopologyRef{Name: "p3", Hosts: 4},
			Faults:   faults,
		}
		for s := 0; s < 3; s++ {
			req.Items = append(req.Items, BatchPlanItem{
				Shape: []int{64, 96},
				Src:   Endpoint{Mesh: fmt.Sprintf("2x2@%d", 4*s), Spec: "S01R"},
				Dst:   Endpoint{Mesh: fmt.Sprintf("2x2@%d", 4*(s+1)), Spec: "S0R"},
			})
		}
		return req
	}
	healthy, err := client.PlanBatch(ctx, mkBatch(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Brownout degrades every link, so every item re-keys.
	degraded, err := client.PlanBatch(ctx, mkBatch(&FaultsRef{Scenario: "brownout"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded.Items) != len(healthy.Items) {
		t.Fatalf("item counts differ: %d vs %d", len(degraded.Items), len(healthy.Items))
	}
	for i := range degraded.Items {
		h, d := healthy.Items[i], degraded.Items[i]
		if h.Error != nil || d.Error != nil {
			t.Fatalf("item %d errored: healthy %v degraded %v", i, h.Error, d.Error)
		}
		if d.Plan.Key == h.Plan.Key {
			t.Errorf("item %d: degraded batch shares the healthy key", i)
		}
		if d.Plan.MakespanSeconds <= h.Plan.MakespanSeconds {
			t.Errorf("item %d: brownout makespan %g does not exceed healthy %g", i, d.Plan.MakespanSeconds, h.Plan.MakespanSeconds)
		}
	}
	// Congruent boundaries still collapse: this GPT-style chain is one
	// equivalence class, healthy or degraded.
	if healthy.Distinct != 1 || degraded.Distinct != 1 {
		t.Errorf("distinct classes: healthy %d degraded %d, want 1 and 1", healthy.Distinct, degraded.Distinct)
	}

	// A malformed overlay fails the items that carried it (the faults
	// block is batch-level, so the whole batch reports invalid_argument).
	bad, err := client.PlanBatch(ctx, mkBatch(&FaultsRef{Hosts: []HostFaultRef{{Host: 77, NICScale: 0.5}}}))
	if err == nil {
		for i, it := range bad.Items {
			if it.Error == nil || it.Error.Code != CodeInvalidArgument {
				t.Errorf("item %d: error = %+v, want invalid_argument", i, it.Error)
			}
		}
	}
}
