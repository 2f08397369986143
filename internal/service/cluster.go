package service

import (
	"context"
	"errors"

	"alpacomm/internal/resharding"
	"alpacomm/internal/sharding"
)

// errNotPlanFrame rejects a frame of the wrong kind where a plan frame is
// required.
var errNotPlanFrame = errors.New("service: binary frame is not a plan frame")

// Cluster integration. The service knows nothing about rings, peers or
// snapshots — it exposes a Router seam that internal/cluster plugs into. A
// plan is a pure function of its request, so every miss is planned on the
// node it lands on and the served path never calls a peer; ring ownership
// only steers clients (see internal/cluster). With a router set, the server
// reports the router's block in /v2/stats and keeps the request of each fill
// so snapshots can replay it (Replay). Keeping the dependency in this
// direction (cluster imports service, never the reverse) lets a standalone
// server run with zero cluster overhead: a nil router skips every hook.

// Router is the cluster tier's seam; see internal/cluster for the
// consistent-hash implementation. Implementations must be safe for
// concurrent use. Install a router with SetRouter before serving.
type Router interface {
	// Info snapshots the router's identity and counters for /v2/stats;
	// the server overlays its own miss count on the result.
	Info() ClusterNodeStats
}

// ClusterNodeStats is the per-node cluster block of a stats response; nil
// when the server runs standalone. Ownership, verification and snapshot
// counters come from the router, RoutedLocal from the server. The fields
// marked "bench only" stay for the benchmark's probes: no served request
// moves them.
type ClusterNodeStats struct {
	// NodeID is this node's tier-unique identity.
	NodeID string `json:"node_id"`
	// Members lists the tier members this node was configured with (self
	// included), sorted.
	Members []string `json:"members"`
	// OwnershipShare is the fraction of the hash space this node owns —
	// ~1/N with virtual-node smoothing.
	OwnershipShare float64 `json:"ownership_share"`
	// RoutedLocal counts the misses planned on this node: every miss.
	RoutedLocal int64 `json:"routed_local"`
	// RoutedProxied and ProxyFallbacks are bench only and always read 0:
	// no miss is fetched from a peer.
	RoutedProxied  int64 `json:"routed_proxied"`
	ProxyFallbacks int64 `json:"proxy_fallbacks"`
	// VerifiedFillAccepts / VerifiedFillRejects are bench only: they count
	// the plans a direct cluster Node.Fetch accepted / rejected after
	// re-simulation, and read 0 on a node that only serves.
	VerifiedFillAccepts int64 `json:"verified_fill_accepts"`
	VerifiedFillRejects int64 `json:"verified_fill_rejects"`
	// SnapshotRestored / SnapshotRejected count warm-restart records that
	// were replayed into the cache / rejected (a record that does not
	// decode to a request this node can plan).
	SnapshotRestored int64 `json:"snapshot_restored"`
	SnapshotRejected int64 `json:"snapshot_rejected"`
}

// SetRouter installs the cluster router. Call before the server starts
// handling requests (it is not synchronized against in-flight handlers);
// a nil router (the default) serves standalone.
func (s *Server) SetRouter(r Router) { s.router = r }

// InstallPlan inserts an externally obtained, already-verified plan into
// the serving cache as a completed entry, pre-serializing the wire bodies
// exactly like a local fill so later hits are byte-identical to locally
// computed ones. It reports false when the key is already resident or the
// plan cannot be serialized (and so could never be served). No served path
// calls it; the benchmark's probes do.
func (s *Server) InstallPlan(key string, plan *resharding.Plan, sim *resharding.SimResult, opts resharding.Options) bool {
	enc, err := newEncodedPlan(plan, sim, opts, key)
	if err != nil || !s.cache.Install(key, plan, sim) {
		return false
	}
	s.cache.Attach(key, enc)
	return true
}

// ParsePlanRequest resolves a wire request into its task, normalized
// options and canonical cache key — the same bounded parse the handlers
// run, exposed for snapshot replay and ring-ownership lookups.
func (s *Server) ParsePlanRequest(ctx context.Context, req *PlanRequest) (*sharding.Task, resharding.Options, string, error) {
	return s.parseTask(ctx, s.intake, req.Topology, req.Faults, req.Shape, req.DType, req.Src, req.Dst, req.Options)
}

// Replay plans one snapshot record on this node: the bounded parse of
// ParsePlanRequest, then the plain miss path. Plans are a pure function of
// the request, so a replayed entry serves the bytes any node would, and a
// record edited into another valid request fills that request's own entry.
// It returns the request's canonical cache key.
func (s *Server) Replay(ctx context.Context, req *PlanRequest) (string, error) {
	task, opts, key, err := s.ParsePlanRequest(ctx, req)
	if err != nil {
		return "", err
	}
	_, _, err = s.computePlan(ctx, key, task, opts, nil, req)
	return key, err
}

// ExportedPlan is one cache entry in snapshot form: the canonical key and
// the wire request that filled it — nil where none is known (a standalone
// server, a degraded fill, an installed plan).
type ExportedPlan struct {
	Key     string
	Request *PlanRequest
}

// ExportPlans lists the plan cache's completed entries, most- to
// least-recently used, so truncating a snapshot keeps the hottest keys.
func (s *Server) ExportPlans() []ExportedPlan {
	entries := s.cache.Export()
	out := make([]ExportedPlan, len(entries))
	for i, e := range entries {
		out[i].Key = e.Key
		if enc, _ := e.Attach.(*encodedPlan); enc != nil {
			out[i].Request = enc.req
		}
	}
	return out
}

// DecodePlanFrame decodes one binary plan frame (the body of a binary
// /v2/plan response) into its wire response.
func DecodePlanFrame(data []byte) (*PlanResponse, error) {
	v, err := decodeBinary(data)
	if err != nil {
		return nil, err
	}
	p, ok := v.(*PlanResponse)
	if !ok {
		return nil, errNotPlanFrame
	}
	return p, nil
}
