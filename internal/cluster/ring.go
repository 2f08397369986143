// Package cluster turns N plan servers into one logical plan cache: a
// consistent-hash ring gives every canonical resharding.CacheKey an owner
// node; a cold key that must search is fetched from its owner (non-owners keep
// verified cache-aside copies; a key proven without a search is planned where
// it lands), whose in-process request coalescing gives the tier cluster-wide
// singleflight; and periodic snapshots of the plan frames make restarts warm.
//
// The tier trusts no peer: every plan received over the wire — from a
// peer fill or a snapshot file — is re-simulated locally
// (resharding.Plan.SimulateNoTrace, trace-free and allocation-free) and
// rejected if the claimed makespan, op count or throughput do not
// reproduce exactly. Plans are deterministic, so honest peers always pass
// and a buggy or byzantine peer cannot poison the tier; see VerifyFill.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVNodes is the virtual-node count per member: enough to keep
// per-node ownership within a few percent of 1/N for single-digit N
// without making membership changes expensive.
const DefaultVNodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the member that owns the arc ending there.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. A key is owned by the
// member whose first virtual node follows the key's hash clockwise.
// Membership changes move only the arcs adjacent to the changed member's
// virtual nodes — ≤ 1/N of keys plus a vnode-smoothing epsilon — and
// never reassign a key between two surviving members. Safe for concurrent
// use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	member map[string]bool
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<= 0 means DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, member: map[string]bool{}}
}

// hashKey positions a key (or virtual node label) on the circle: FNV-1a
// 64 with a murmur3-style avalanche finalizer. FNV alone places the
// short, near-identical virtual-node labels ("node3#17") too unevenly for
// ~1/N balance; the finalizer spreads them without losing the property
// that matters — the hash is stable across processes, so every node
// places every key identically and routing cannot loop.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Add inserts a member; it reports false (no change) when already present.
func (r *Ring) Add(node string) bool {
	if node == "" {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[node] {
		return false
	}
	r.member[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hashKey(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return true
}

// Remove deletes a member; it reports false when absent.
func (r *Ring) Remove(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[node] {
		return false
	}
	delete(r.member, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Owner returns the member owning key; ok is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	h := hashKey(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	return r.points[i].node, true
}

// Has reports membership.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.member[node]
}

// Members returns the sorted member list.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.member))
	for m := range r.member {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Share returns the fraction of the hash space node owns — the
// expected fraction of keys routed to it, ~1/N with vnode smoothing; 0
// when node is not a member.
func (r *Ring) Share(node string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.member[node] || len(r.points) == 0 {
		return 0
	}
	if len(r.member) == 1 {
		return 1
	}
	// Each point owns the arc from its predecessor (exclusive) to itself;
	// the first point's arc wraps around from the last.
	var owned uint64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		if p.node == node {
			owned += p.hash - prev // wrap-safe: uint64 arithmetic is mod 2^64
		}
		prev = p.hash
	}
	return float64(owned) / (1 << 63) / 2
}
