package main

import (
	"context"
	"net/http/httptest"
	"testing"

	alpacomm "alpacomm"
	"alpacomm/internal/mesh"
	"alpacomm/internal/service"
)

// TestChurnStepsServeFreshServerBytes runs the churn phase the smoke runs
// (-churn, the flap timeline) against an in-process server and requires
// every reply to equal a fresh server's answer to the same request. It
// also holds the check itself to what it claims: a reply with another
// launch order counts as a mismatch, while a coalesced copy of the right
// answer and a degraded reply do not.
func TestChurnStepsServeFreshServerBytes(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	ctx := context.Background()
	res, err := runChurnPhase(ctx, alpacomm.NewPlanClient(ts.URL, nil), mesh.ChurnFlap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ok == 0 || res.errs > 0 {
		t.Fatalf("churn phase: %d ok, %d errors (first: %s)", res.ok, res.errs, res.firstErr)
	}
	if res.mismatches != 0 {
		t.Fatalf("%d churn replies differ from a fresh server's (first: %s)", res.mismatches, res.firstMismatch)
	}

	want := res.want[0]
	coalesced := *want
	coalesced.Coalesced = true
	res.note(0, &coalesced)
	degraded := *want
	degraded.Degraded, degraded.Order = true, nil
	res.note(0, &degraded)
	if res.mismatches != 0 {
		t.Errorf("a coalesced or degraded reply counted as %d mismatch(es), want 0", res.mismatches)
	}
	if len(want.Order) < 2 {
		t.Fatalf("step 0 launches %d units; the check needs two to swap", len(want.Order))
	}
	swapped := *want
	swapped.Order = append([]int(nil), want.Order...)
	swapped.Order[0], swapped.Order[1] = swapped.Order[1], swapped.Order[0]
	res.note(0, &swapped)
	if res.mismatches != 1 || res.firstMismatch == "" {
		t.Errorf("a reply with a swapped launch order counted as %d mismatch(es), want 1", res.mismatches)
	}
}
