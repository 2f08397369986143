package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
)

// fetchBound caps one Node.Fetch beneath the caller's own context: ~40x the
// costliest default-budget search (12 ms).
const fetchBound = 500 * time.Millisecond

// Config configures one tier node.
type Config struct {
	// NodeID is this node's tier-unique identity (ring position derives
	// from it, so restarting under the same id restores the same
	// ownership). Required.
	NodeID string
	// SelfAddr is this node's advertised base URL ("http://host:port"),
	// announced to peers on Join. May be empty for a node that never
	// joins dynamically (static -peers on every member).
	SelfAddr string
	// Peers maps peer node ids to base URLs — the initial static
	// membership, self excluded (including it is harmless).
	Peers map[string]string
	// VNodes is the virtual-node count per member; <= 0 = DefaultVNodes.
	// Must be identical on every member or nodes would disagree on
	// ownership.
	VNodes int
	// HTTPClient is used for peer traffic (membership, Node.Fetch); nil =
	// a service.NewClient default per peer.
	HTTPClient *http.Client
}

// Node makes one service.Server a member of a plan-serving tier. It
// implements service.Router (install with server.SetRouter — New does it),
// so the server reports the node's block in /v2/stats and keeps each fill's
// request for Snapshot, and it serves the membership endpoints under
// /cluster/ (mount via Handler).
type Node struct {
	cfg  Config
	srv  *service.Server
	ring *Ring

	mu      sync.RWMutex
	addrs   map[string]string // member id -> base URL (self absent)
	clients map[string]*service.Client

	accepts   atomic.Int64
	rejects   atomic.Int64
	restored  atomic.Int64
	rejectedR atomic.Int64
}

// New builds a tier node around srv, seeds the ring with self plus the
// configured peers, and installs itself as the server's router. Announce
// dynamic membership with Join/Leave; persist and restore the cache with
// Snapshot/Restore.
func New(cfg Config, srv *service.Server) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID is required")
	}
	n := &Node{
		cfg:     cfg,
		srv:     srv,
		ring:    NewRing(cfg.VNodes),
		addrs:   map[string]string{},
		clients: map[string]*service.Client{},
	}
	n.ring.Add(cfg.NodeID)
	for id, addr := range cfg.Peers {
		if id == cfg.NodeID {
			continue
		}
		n.addMember(id, addr)
	}
	srv.SetRouter(n)
	return n, nil
}

// NodeID returns this node's identity.
func (n *Node) NodeID() string { return n.cfg.NodeID }

// Ring exposes the node's ring (tests and loadgen assert on ownership).
func (n *Node) Ring() *Ring { return n.ring }

// addMember registers a member address and ring position.
func (n *Node) addMember(id, addr string) {
	if id == "" || id == n.cfg.NodeID {
		return
	}
	n.mu.Lock()
	if addr != "" && n.addrs[id] != addr {
		n.addrs[id] = addr
		delete(n.clients, id) // rebuilt lazily against the new address
	}
	n.mu.Unlock()
	n.ring.Add(id)
}

// removeMember drops a member from the ring and the address table.
func (n *Node) removeMember(id string) {
	n.ring.Remove(id)
	n.mu.Lock()
	delete(n.addrs, id)
	delete(n.clients, id)
	n.mu.Unlock()
}

// client returns (building if needed) Fetch's client for a member: binary
// wire, the frames verification consumes.
func (n *Node) client(id string) *service.Client {
	n.mu.RLock()
	cl, ok := n.clients[id]
	addr := n.addrs[id]
	n.mu.RUnlock()
	if ok {
		return cl
	}
	if addr == "" {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if cl, ok = n.clients[id]; ok {
		return cl
	}
	cl = service.NewClient(addr, n.cfg.HTTPClient, service.WithBinary())
	n.clients[id] = cl
	return cl
}

// Fetch asks a peer for the plan of key over /v2 (binary wire), within ctx
// and fetchBound, and gates the answer through VerifyFill, counting accepts
// and rejects. No served path calls it — every miss is planned where it
// lands — and it installs nothing; it stays for the benchmark's probes.
func (n *Node) Fetch(ctx context.Context, owner, key string, req *service.PlanRequest, task *sharding.Task, opts resharding.Options) (*resharding.Plan, *resharding.SimResult, error) {
	cl := n.client(owner)
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

// Handler returns the node's full HTTP surface: /cluster/* membership
// endpoints plus the wrapped plan server for everything else — what a
// daemon (or an in-process tier) should serve.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/cluster/", n)
	mux.Handle("/", n.srv)
	return mux
}

// memberChange is the body of /cluster/join and /cluster/leave.
type memberChange struct {
	Node string `json:"node"`
	Addr string `json:"addr,omitempty"`
}

// memberList is the body of /cluster/members and the join response: the
// receiver's full view, so a joiner learns members it was not configured
// with.
type memberList struct {
	Members map[string]string `json:"members"`
}

// ServeHTTP serves the membership endpoints:
//
//	POST /cluster/join   {"node","addr"} — add a member; returns the view
//	POST /cluster/leave  {"node"}        — remove a member
//	GET  /cluster/members               — current view
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/cluster/join", "/cluster/leave":
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"use POST"}`, http.StatusMethodNotAllowed)
			return
		}
		var mc memberChange
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&mc); err != nil || mc.Node == "" {
			http.Error(w, `{"error":"bad membership body"}`, http.StatusBadRequest)
			return
		}
		if r.URL.Path == "/cluster/join" {
			n.addMember(mc.Node, mc.Addr)
		} else if mc.Node != n.cfg.NodeID {
			n.removeMember(mc.Node)
		}
		n.writeMembers(w)
	case "/cluster/members":
		if r.Method != http.MethodGet {
			http.Error(w, `{"error":"use GET"}`, http.StatusMethodNotAllowed)
			return
		}
		n.writeMembers(w)
	default:
		http.NotFound(w, r)
	}
}

func (n *Node) writeMembers(w http.ResponseWriter) {
	n.mu.RLock()
	view := make(map[string]string, len(n.addrs)+1)
	for id, addr := range n.addrs {
		view[id] = addr
	}
	n.mu.RUnlock()
	view[n.cfg.NodeID] = n.cfg.SelfAddr
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(memberList{Members: view})
}

// Join announces this node to every configured peer and merges the
// membership views they answer with, so a node joining an established
// tier learns members it was not configured with. Unreachable peers are
// skipped (best-effort: static Peers already seeded the ring); the first
// error is returned after all peers were tried.
func (n *Node) Join(ctx context.Context) error {
	var firstErr error
	for _, id := range n.ring.Members() {
		if id == n.cfg.NodeID {
			continue
		}
		view, err := n.postMembership(ctx, id, "/cluster/join",
			memberChange{Node: n.cfg.NodeID, Addr: n.cfg.SelfAddr})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for mid, addr := range view {
			n.addMember(mid, addr)
		}
	}
	return firstErr
}

// Leave removes this node from its own ring and announces the departure
// to every peer — the leave-the-ring-first half of a graceful shutdown:
// once it returns, clients that route by a peer's ring stop sending keys
// here while this node drains in-flight requests, still serving hits and
// planning its own misses as before.
func (n *Node) Leave(ctx context.Context) {
	n.ring.Remove(n.cfg.NodeID)
	for _, id := range n.ring.Members() {
		_, _ = n.postMembership(ctx, id, "/cluster/leave", memberChange{Node: n.cfg.NodeID})
	}
}

// postMembership posts one membership change to a peer's /cluster
// endpoint and decodes the returned view.
func (n *Node) postMembership(ctx context.Context, id, path string, mc memberChange) (map[string]string, error) {
	n.mu.RLock()
	addr := n.addrs[id]
	n.mu.RUnlock()
	if addr == "" {
		return nil, fmt.Errorf("cluster: no address for member %q", id)
	}
	body, err := json.Marshal(mc)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	hc := n.cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s on %q: %s", path, id, resp.Status)
	}
	var ml memberList
	if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil {
		return nil, err
	}
	return ml.Members, nil
}
