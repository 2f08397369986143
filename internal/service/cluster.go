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
// snapshots — it exposes a Router seam that internal/cluster plugs into:
// the router says which node owns a canonical cache key and fetches the plan
// of a miss that must search from that peer (see computePlan); with a router
// set, the server keeps the request of each fill so snapshots can replay it
// (Replay). Keeping the dependency in this direction (cluster imports
// service, never the reverse) lets a standalone server run with zero cluster
// overhead: a nil router skips every hook.

// PeerHeader marks a request as originating from another tier node rather
// than a client; its value is the sending node's id. A server receiving it
// always resolves the plan locally — owner-side compute or cache — and
// never re-proxies, so routing disagreement during a membership change
// costs at most one extra computation, never a forwarding loop.
const PeerHeader = "X-Alpacomm-Peer"

// Router is the cluster tier's routing seam; see internal/cluster for the
// consistent-hash implementation. Implementations must be safe for
// concurrent use. Install a router with SetRouter before serving.
type Router interface {
	// Route reports the owner of a canonical cache key and whether that
	// owner is this node. Asked only about misses that must search.
	Route(key string) (owner string, local bool)
	// Fetch obtains the plan for key from the owning peer, within ctx and a
	// bound of its own, already verified against this node's own task (the
	// fetcher re-simulates it); an error falls the caller back to computing.
	Fetch(ctx context.Context, owner, key string, req *PlanRequest, task *sharding.Task, opts resharding.Options) (*resharding.Plan, *resharding.SimResult, error)
	// Info snapshots the router's identity and counters for /v2/stats;
	// the server overlays its own routing counters on the result.
	Info() ClusterNodeStats
}

// ClusterNodeStats is the per-node cluster block of a stats response; nil
// when the server runs standalone. Ownership and verification counters
// come from the router, routing counters from the server.
type ClusterNodeStats struct {
	// NodeID is this node's tier-unique identity.
	NodeID string `json:"node_id"`
	// Members lists the ring members this node currently sees (self
	// included), sorted.
	Members []string `json:"members"`
	// OwnershipShare is the fraction of the hash space this node owns —
	// ~1/N with virtual-node smoothing.
	OwnershipShare float64 `json:"ownership_share"`
	// RoutedLocal counts misses planned on this node: owned here, or proven
	// by the closed-form candidates without a search.
	RoutedLocal int64 `json:"routed_local"`
	// RoutedProxied counts misses fetched from the owner: all the others.
	RoutedProxied int64 `json:"routed_proxied"`
	// ProxyFallbacks counts proxied misses that fell back to computing here
	// (peer unreachable or slow, fill rejected); the rest are VerifiedFillAccepts.
	ProxyFallbacks int64 `json:"proxy_fallbacks"`
	// VerifiedFillAccepts counts peer plans accepted after re-simulation.
	VerifiedFillAccepts int64 `json:"verified_fill_accepts"`
	// VerifiedFillRejects counts peer plans rejected by re-simulation —
	// a buggy or byzantine peer's plans never enter this node's cache.
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

// AsPeer marks every request from this client as tier-internal traffic
// from the named node: the receiving server resolves it locally instead of
// re-routing (see PeerHeader).
func AsPeer(nodeID string) ClientOption {
	return func(c *Client) { c.peer = nodeID }
}

// InstallPlan inserts an externally obtained, already-verified plan into
// the serving cache as a completed entry, pre-serializing the wire bodies
// exactly like a local fill so later hits are byte-identical to locally
// computed ones. It reports false when the key is already resident or the
// plan cannot be serialized (and so could never be served).
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
// run, exposed for snapshot replay and cluster routing.
func (s *Server) ParsePlanRequest(ctx context.Context, req *PlanRequest) (*sharding.Task, resharding.Options, string, error) {
	return s.parseTask(ctx, s.intake, req.Topology, req.Faults, req.Shape, req.DType, req.Src, req.Dst, req.Options)
}

// Replay plans one snapshot record on this node: the bounded parse of
// ParsePlanRequest, then the miss path of a peer-marked request, so the plan
// is made here and never fetched. Plans are a pure function of the
// request, so a replayed entry serves the bytes any node would, and a record
// edited into another valid request fills that request's own entry. It
// returns the request's canonical cache key.
func (s *Server) Replay(ctx context.Context, req *PlanRequest) (string, error) {
	task, opts, key, err := s.ParsePlanRequest(ctx, req)
	if err != nil {
		return "", err
	}
	_, _, err = s.computePlan(ctx, key, task, opts, nil, req, true)
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
