package cluster

import (
	"fmt"
	"math"
	"testing"
)

// ringKeys synthesizes a deterministic key population shaped like real
// cache keys (long strings with a varying tail).
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("t=[128 128 8]/fp32;s=[2 4]/RS01R@0;d=[2 4]/S01RR@8;o=1/2/8/0/20000/0/%d", i)
	}
	return keys
}

func ringWithNodes(n int) *Ring {
	r := NewRing()
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("node%d", i))
	}
	return r
}

func owners(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatal("empty ring")
		}
		m[k] = o
	}
	return m
}

// TestRingAddMovesBoundedFraction is the rebalancing property test: adding
// a member to an N-node ring moves at most 1/(N+1) of keys plus a
// virtual-node smoothing epsilon, and every moved key moves TO the new
// member — no key is ever reassigned between two surviving members.
func TestRingAddMovesBoundedFraction(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{1, 2, 3, 4, 7, 8, 15} {
		r := ringWithNodes(n)
		before := owners(t, r, keys)
		r.Add("joiner")
		after := owners(t, r, keys)
		moved := 0
		for _, k := range keys {
			if before[k] != after[k] {
				moved++
				if after[k] != "joiner" {
					t.Fatalf("n=%d: key moved between surviving members %q -> %q", n, before[k], after[k])
				}
			}
		}
		frac := float64(moved) / float64(len(keys))
		bound := 1/float64(n+1) + 0.08
		if frac > bound {
			t.Errorf("n=%d: adding a node moved %.3f of keys, bound %.3f", n, frac, bound)
		}
		// The join must actually take ownership, not land on a dead arc.
		if moved == 0 {
			t.Errorf("n=%d: joiner owns no keys", n)
		}
	}
}

// TestRingRemoveMovesOnlyOwnedKeys: removing a member reassigns exactly
// the keys it owned; every key owned by a survivor keeps its owner.
func TestRingRemoveMovesOnlyOwnedKeys(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{2, 3, 4, 8} {
		r := ringWithNodes(n)
		before := owners(t, r, keys)
		victim := "node0"
		r.Remove(victim)
		after := owners(t, r, keys)
		moved := 0
		for _, k := range keys {
			if before[k] == victim {
				moved++
				if after[k] == victim {
					t.Fatalf("n=%d: key still owned by removed member", n)
				}
				continue
			}
			if before[k] != after[k] {
				t.Fatalf("n=%d: survivor-owned key moved %q -> %q", n, before[k], after[k])
			}
		}
		frac := float64(moved) / float64(len(keys))
		bound := 1/float64(n) + 0.08
		if frac > bound {
			t.Errorf("n=%d: removing a node moved %.3f of keys, bound %.3f", n, frac, bound)
		}
	}
}

// TestRingShare: ownership shares sum to 1 and stay within vnode-smoothing
// distance of 1/N, and Share agrees with the measured key fraction.
func TestRingShare(t *testing.T) {
	keys := ringKeys(50000)
	for _, n := range []int{1, 2, 4, 8} {
		r := ringWithNodes(n)
		var sum float64
		counts := map[string]int{}
		for k, o := range owners(t, r, keys) {
			_ = k
			counts[o]++
		}
		for _, m := range r.Members() {
			share := r.Share(m)
			sum += share
			if want := 1 / float64(n); math.Abs(share-want) > 0.08 {
				t.Errorf("n=%d: %s share %.3f, want %.3f ± 0.08", n, m, share, want)
			}
			measured := float64(counts[m]) / float64(len(keys))
			if math.Abs(share-measured) > 0.02 {
				t.Errorf("n=%d: %s share %.3f but owns %.3f of keys", n, m, share, measured)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: shares sum to %v, want 1", n, sum)
		}
	}
	if s := NewRing().Share("ghost"); s != 0 {
		t.Errorf("non-member share = %v, want 0", s)
	}
}

// TestRingDeterministicAcrossInstances: two rings built with the same
// members in different insertion orders route every key identically —
// the property that keeps tier routing loop-free.
func TestRingDeterministicAcrossInstances(t *testing.T) {
	keys := ringKeys(2000)
	a := NewRing()
	b := NewRing()
	for i := 0; i < 5; i++ {
		a.Add(fmt.Sprintf("node%d", i))
	}
	for i := 4; i >= 0; i-- {
		b.Add(fmt.Sprintf("node%d", i))
	}
	for _, k := range keys {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("rings disagree on %q: %q vs %q", k, oa, ob)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing()
	if _, ok := r.Owner("k"); ok {
		t.Error("empty ring reported an owner")
	}
	if r.Add("") {
		t.Error("empty member id accepted")
	}
	if !r.Add("a") || r.Add("a") {
		t.Error("Add idempotence broken")
	}
	if o, ok := r.Owner("k"); !ok || o != "a" {
		t.Errorf("single-member ring owner = %q, %v", o, ok)
	}
	if r.Share("a") != 1 {
		t.Errorf("single-member share = %v, want 1", r.Share("a"))
	}
	if !r.Remove("a") || r.Remove("a") {
		t.Error("Remove idempotence broken")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after removing all", r.Len())
	}
}
