package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
)

// fetchBound caps one Node.Fetch beneath the caller's own context: ~40x the
// costliest default-budget search (12 ms).
const fetchBound = 500 * time.Millisecond

// Config configures one tier node. Membership is fixed here: the node's
// ring holds NodeID plus Peers for the node's whole life.
type Config struct {
	// NodeID is this node's tier-unique identity; its ring position derives
	// from it. Required.
	NodeID string
	// SelfAddr is read by nothing. It stays only because the benchmark's
	// tier (bench/workloads.go) sets it, until ROADMAP 7(a) drops that.
	SelfAddr string
	// Peers maps peer node ids to base URLs, self excluded (including it
	// is harmless).
	Peers map[string]string
}

// Node makes one service.Server a member of a plan-serving tier. It
// implements service.Router (New installs it with server.SetRouter), so the
// server reports the node's block in /v2/stats and keeps each fill's
// request for Snapshot.
type Node struct {
	cfg     Config
	srv     *service.Server
	ring    *Ring
	clients map[string]*service.Client // Fetch's binary client per peer; read-only after New

	accepts   atomic.Int64
	rejects   atomic.Int64
	restored  atomic.Int64
	rejectedR atomic.Int64
}

// New builds a tier node around srv, puts self and the configured peers on
// its ring, and installs itself as the server's router. Persist and restore
// the cache with Snapshot/Restore.
func New(cfg Config, srv *service.Server) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID is required")
	}
	n := &Node{cfg: cfg, srv: srv, ring: NewRing(), clients: map[string]*service.Client{}}
	n.ring.Add(cfg.NodeID)
	for id, addr := range cfg.Peers {
		if id == "" || id == cfg.NodeID {
			continue
		}
		n.ring.Add(id)
		if addr != "" {
			n.clients[id] = service.NewClient(addr, nil, service.WithBinary())
		}
	}
	srv.SetRouter(n)
	return n, nil
}

// NodeID returns this node's identity.
func (n *Node) NodeID() string { return n.cfg.NodeID }

// Ring exposes the node's ring (the benchmark's probes read ownership).
func (n *Node) Ring() *Ring { return n.ring }

// Fetch asks a peer for the plan of key over /v2 (binary wire), within ctx
// and fetchBound, and gates the answer through VerifyFill, counting accepts
// and rejects. No served path calls it — every miss is planned where it
// lands — and it installs nothing; it stays for the benchmark's probes.
func (n *Node) Fetch(ctx context.Context, owner, key string, req *service.PlanRequest, task *sharding.Task, opts resharding.Options) (*resharding.Plan, *resharding.SimResult, error) {
	cl := n.clients[owner]
	if cl == nil {
		return nil, nil, fmt.Errorf("cluster: no address for owner %q", owner)
	}
	fctx, cancel := context.WithTimeout(ctx, fetchBound)
	defer cancel()
	resp, err := cl.PlanV2(fctx, req)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: fetch from %q failed: %w", owner, err)
	}
	if resp.Key != key {
		// The peer decomposed the same request to a different canonical
		// key: version skew or corruption — either way not the entry we
		// asked for.
		n.rejects.Add(1)
		return nil, nil, fmt.Errorf("cluster: fill rejected: peer %q answered key %q, want %q", owner, resp.Key, key)
	}
	plan, sim, err := VerifyFill(task, opts, resp)
	if err != nil {
		n.rejects.Add(1)
		return nil, nil, err
	}
	n.accepts.Add(1)
	return plan, sim, nil
}

// Info implements service.Router.
func (n *Node) Info() service.ClusterNodeStats {
	return service.ClusterNodeStats{
		NodeID:              n.cfg.NodeID,
		Members:             n.ring.Members(),
		OwnershipShare:      n.ring.Share(n.cfg.NodeID),
		VerifiedFillAccepts: n.accepts.Load(),
		VerifiedFillRejects: n.rejects.Load(),
		SnapshotRestored:    n.restored.Load(),
		SnapshotRejected:    n.rejectedR.Load(),
	}
}

// Handler returns the wrapped plan server. A node adds no endpoint of its
// own; Handler stays only because the benchmark's tier serves through it,
// until ROADMAP 7(a) drops that.
func (n *Node) Handler() http.Handler { return n.srv }
