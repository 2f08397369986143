package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// testNode is one member of an in-process tier over real loopback HTTP.
type testNode struct {
	node *Node
	srv  *service.Server
	ts   *httptest.Server
	url  string
}

// startTier builds an n-member tier: every node gets its own plan server
// (cfg built per node — caches must not be shared) and knows every peer's
// address up front.
func startTier(t testing.TB, ids []string, mkCfg func() service.Config) []*testNode {
	t.Helper()
	n := len(ids)
	nodes := make([]*testNode, n)
	handlers := make([]http.Handler, n)
	for i := range ids {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{ts: ts, url: ts.URL}
	}
	for i, id := range ids {
		peers := map[string]string{}
		for j, pid := range ids {
			if j != i {
				peers[pid] = nodes[j].url
			}
		}
		srv := service.New(mkCfg())
		node, err := New(Config{NodeID: id, SelfAddr: nodes[i].url, Peers: peers}, srv)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].srv, nodes[i].node = srv, node
		handlers[i] = node.Handler()
	}
	return nodes
}

// fixtureParser parses fixtures for classed; it serves nothing.
var fixtureParser = service.New(service.Config{})

// The tier routes a miss by what is left of it after the closed-form
// candidates (Server.computePlan), so its tests come in two classes, and
// classed holds each fixture to its own: tierReq is proven at Naive and is
// planned wherever it lands; searchReq must search and is fetched from its
// ring owner. Distinct seeds give distinct cache keys.
func classed(t testing.TB, req *service.PlanRequest, proven bool) *service.PlanRequest {
	t.Helper()
	task, opts, _, err := fixtureParser.ParsePlanRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	d, err := resharding.NewDraft(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Proven() != proven {
		t.Fatalf("fixture rotted: draft proven = %v, the test needs %v: %+v", d.Proven(), proven, req)
	}
	return req
}

// tierReq is a small, fast, valid plan request the closed-form candidates
// prove.
func tierReq(t testing.TB, seed int64) *service.PlanRequest {
	return classed(t, &service.PlanRequest{
		Topology: service.TopologyRef{Name: "p3", Hosts: 2},
		Shape:    []int{128, 128},
		Src:      service.Endpoint{Mesh: "2x2@0", Spec: "S01R"},
		Dst:      service.Endpoint{Mesh: "2x2@4", Spec: "S0R"},
		Options:  service.PlanOptions{Seed: seed},
	}, true)
}

// searchReq is a request of `loadgen -cluster`'s working set: 16 units over
// 4 p3 hosts, each sendable from either source host, which no search proves
// — the target search, the DFS and greedy each spend their budgets, ~3.5 ms
// — long enough for a herd to find the miss in flight.
func searchReq(t testing.TB, seed int64) *service.PlanRequest {
	return classed(t, &service.PlanRequest{
		Topology: service.TopologyRef{Name: "p3", Hosts: 4},
		Shape:    []int{62, 96},
		Src:      service.Endpoint{Mesh: "2x4@0", Spec: "RS1"},
		Dst:      service.Endpoint{Mesh: "2x4@8", Spec: "S1S0"},
		Options: service.PlanOptions{
			Seed: seed, Strategy: "broadcast", Scheduler: "ensemble",
			DFSNodes: 20000, Chunks: 8,
		},
	}, false)
}

// seedOwnedBy returns the first seed whose request's key node's ring assigns
// to owner.
func seedOwnedBy(t testing.TB, tn *testNode, mk func(testing.TB, int64) *service.PlanRequest, owner string) int64 {
	t.Helper()
	for seed := int64(1); ; seed++ {
		_, _, key, err := tn.srv.ParsePlanRequest(context.Background(), mk(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := tn.node.Ring().Owner(key); got == owner {
			return seed
		}
	}
}

// rawPlan posts the request as JSON and returns the raw response body —
// the bytes clients see, for byte-identity assertions.
func rawPlan(t *testing.T, baseURL string, req *service.PlanRequest) []byte {
	t.Helper()
	body, err := postJSON(baseURL+"/v2/plan", req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postJSON(url string, req *service.PlanRequest) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

func tierMisses(nodes []*testNode) int {
	total := 0
	for _, tn := range nodes {
		total += tn.srv.Cache().Stats().Misses
	}
	return total
}

// herd posts req n times at once, request g to urls[g%len(urls)], and
// returns the bodies with the coalesced flag — the one thing a coalesced
// response may differ in — normalized away. Every request must succeed: a
// stranded waiter shows as the test's timeout.
func herd(t *testing.T, n int, urls []string, req *service.PlanRequest) []string {
	t.Helper()
	var wg sync.WaitGroup
	bodies, errs := make([]string, n), make([]error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body, err := postJSON(urls[g%len(urls)]+"/v2/plan", req)
			bodies[g], errs[g] = string(bytes.ReplaceAll(body, []byte(`,"coalesced":true`), nil)), err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("herd member %d: %v", g, err)
		}
		if bodies[g] != bodies[0] {
			t.Fatalf("herd member %d got a different plan:\n %s\n vs %s", g, bodies[g], bodies[0])
		}
	}
	return bodies
}

func tierURLs(nodes []*testNode) []string {
	urls := make([]string, len(nodes))
	for i, tn := range nodes {
		urls[i] = tn.url
	}
	return urls
}

// TestTierByteIdenticalAcrossNodes: the same request served by every node
// of a 3-node tier — owner, proxier, cache-aside — returns byte-identical
// bodies, identical to a standalone server's, whichever class it is: who
// computes a plan never shows in its bytes.
func TestTierByteIdenticalAcrossNodes(t *testing.T) {
	for _, class := range []struct {
		name string
		req  func(testing.TB, int64) *service.PlanRequest
		// computations is what 5 keys cost the tier: a searched key is
		// computed once, by its owner, however many nodes serve it; a proven
		// one once on every node it lands on.
		computations int
	}{
		{"searched", searchReq, 5},
		{"proven", tierReq, 15},
	} {
		t.Run(class.name, func(t *testing.T) {
			nodes := startTier(t, []string{"a", "b", "c"}, func() service.Config { return service.Config{} })
			standalone := httptest.NewServer(service.New(service.Config{}))
			defer standalone.Close()
			for seed := int64(1); seed <= 5; seed++ {
				req := class.req(t, seed)
				want := rawPlan(t, standalone.URL, req)
				for round := 0; round < 2; round++ { // cold then cached
					for _, tn := range nodes {
						if got := rawPlan(t, tn.url, req); !bytes.Equal(got, want) {
							t.Fatalf("seed %d round %d node %s: body differs\n got %s\nwant %s",
								seed, round, tn.node.NodeID(), got, want)
						}
					}
				}
			}
			if m := tierMisses(nodes); m != class.computations {
				t.Errorf("tier computed %d plans for 5 distinct keys, want %d", m, class.computations)
			}
		})
	}
}

// TestTierCrossNodeSingleflight: a thundering herd on one cold key that must
// search, spread across every node of the tier, costs exactly one planner
// computation tier-wide — the owner's in-process coalescing merges the
// proxied fetches, and each non-owner's local flight merges its own herd.
func TestTierCrossNodeSingleflight(t *testing.T) {
	nodes := startTier(t, []string{"a", "b", "c"}, func() service.Config { return service.Config{} })
	req := searchReq(t, 99)
	herd(t, 24, tierURLs(nodes), req)
	if m := tierMisses(nodes); m != 1 {
		t.Errorf("cold key cost %d computations tier-wide, want exactly 1", m)
	}
}

// TestTierProvenHerdStaysLocal is the mirror for the other class: a herd on
// a cold key the closed-form candidates prove is planned where it lands. The
// key's owner is the one node nobody addresses — under ownership routing
// every miss would have crossed the wire to it — and it never hears of the
// key; no node fetches; each addressed node computes at most once.
func TestTierProvenHerdStaysLocal(t *testing.T) {
	nodes := startTier(t, []string{"a", "b", "c", "d"}, func() service.Config { return service.Config{} })
	req := tierReq(t, seedOwnedBy(t, nodes[0], tierReq, "d"))
	standalone := httptest.NewServer(service.New(service.Config{}))
	defer standalone.Close()
	want := string(rawPlan(t, standalone.URL, req))
	if got := herd(t, 24, tierURLs(nodes[:3]), req)[0]; got != want {
		t.Fatalf("herd plan differs from a standalone server's:\n %s\n vs %s", got, want)
	}
	for _, tn := range nodes {
		st, err := service.NewClient(tn.url, nil).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		id := tn.node.NodeID()
		if st.Cluster.RoutedProxied != 0 {
			t.Errorf("node %s fetched a proven key %d times", id, st.Cluster.RoutedProxied)
		}
		if st.Cache.Misses > 1 {
			t.Errorf("node %s computed the key %d times", id, st.Cache.Misses)
		}
		if id == "d" && st.Plan.Requests != 0 {
			t.Errorf("the owner, which nobody addressed, saw %d plan requests", st.Plan.Requests)
		}
	}
}

// TestTierVerifiedFill: a non-owner's fetch is verified before it is
// cached (accept counter), and a tampered peer response — a byzantine
// owner claiming a makespan its plan does not achieve — is rejected, with
// the node falling back to a correct local computation.
func TestTierVerifiedFill(t *testing.T) {
	// Honest 2-node tier first: a key that must search, owned by b, requested
	// via a.
	nodes := startTier(t, []string{"a", "b"}, func() service.Config { return service.Config{} })
	a, b := nodes[0], nodes[1]
	req := searchReq(t, seedOwnedBy(t, a, searchReq, "b"))
	want := rawPlan(t, b.url, req) // owner computes
	if got := rawPlan(t, a.url, req); !bytes.Equal(got, want) {
		t.Fatalf("proxied fill differs from owner's plan")
	}
	if acc := a.node.Info().VerifiedFillAccepts; acc != 1 {
		t.Errorf("accepts = %d, want 1", acc)
	}
	if m := b.srv.Cache().Stats().Misses; m != 1 {
		t.Errorf("owner misses = %d, want 1", m)
	}
	// a now serves the cache-aside copy without touching b.
	if got := rawPlan(t, a.url, req); !bytes.Equal(got, want) {
		t.Fatalf("cache-aside serve differs")
	}

	// Byzantine tier: node a2's address for its peer points through a
	// proxy that corrupts the claimed makespan in every binary plan frame.
	tamperTarget := ""
	tamper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, err := http.NewRequest(r.Method, tamperTarget+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		out.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK && r.URL.Path == "/v2/plan" && len(body) > 22 {
			body[14] ^= 0xff // one makespan byte of the APB1 plan frame
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	defer tamper.Close()

	honest := service.New(service.Config{})
	honestTS := httptest.NewServer(honest)
	defer honestTS.Close()
	honestNode, err := New(Config{NodeID: "b2", Peers: map[string]string{}}, honest)
	if err != nil {
		t.Fatal(err)
	}
	_ = honestNode
	tamperTarget = honestTS.URL

	victim := service.New(service.Config{})
	victimNode, err := New(Config{NodeID: "a2", Peers: map[string]string{"b2": tamper.URL}}, victim)
	if err != nil {
		t.Fatal(err)
	}
	victimTS := httptest.NewServer(victimNode.Handler())
	defer victimTS.Close()

	req = searchReq(t, seedOwnedBy(t, &testNode{node: victimNode, srv: victim}, searchReq, "b2"))
	direct := rawPlan(t, honestTS.URL, req)
	got := rawPlan(t, victimTS.URL, req)
	if !bytes.Equal(got, direct) {
		t.Fatalf("fallback plan differs from direct computation:\n %s\n vs %s", got, direct)
	}
	info := victimNode.Info()
	if info.VerifiedFillRejects != 1 {
		t.Errorf("rejects = %d, want 1 (tampered fill must not be trusted)", info.VerifiedFillRejects)
	}
	if info.VerifiedFillAccepts != 0 {
		t.Errorf("accepts = %d, want 0", info.VerifiedFillAccepts)
	}
}

// TestTierHungOwnerFallsBack: an owner that accepts the connection and never
// answers costs a fetched miss fetchBound, not the request: the fetch expires
// under the request's still-live context, the same flight finishes its own
// draft — one fallback for the whole herd, no waiter stranded — and the bytes
// are a standalone server's.
func TestTierHungOwnerFallsBack(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release) // before Close, which waits for the handlers

	srv := service.New(service.Config{})
	node, err := New(Config{NodeID: "a", Peers: map[string]string{"hung": hung.URL}}, srv)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()
	standalone := httptest.NewServer(service.New(service.Config{}))
	defer standalone.Close()

	req := searchReq(t, seedOwnedBy(t, &testNode{node: node, srv: srv}, searchReq, "hung"))
	want := string(rawPlan(t, standalone.URL, req))
	start := time.Now()
	if got := herd(t, 6, []string{ts.URL}, req)[0]; got != want {
		t.Fatalf("fallback plan differs from a standalone server's:\n %s\n vs %s", got, want)
	}
	// Generous on the far side: the bound, a 10 ms search and a loaded CI box.
	if took := time.Since(start); took < fetchBound || took > fetchBound+5*time.Second {
		t.Errorf("served after %v, want shortly after the %v fetch bound", took, fetchBound)
	}
	st, err := service.NewClient(ts.URL, nil).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs := st.Cluster; cs.RoutedProxied != 1 || cs.ProxyFallbacks != 1 || cs.VerifiedFillAccepts != 0 || st.Cache.Misses != 1 {
		t.Errorf("proxied %d, fallbacks %d, accepts %d, computations %d: want one fetch, one fallback, one computation",
			cs.RoutedProxied, cs.ProxyFallbacks, cs.VerifiedFillAccepts, st.Cache.Misses)
	}
}

// TestTierMembershipChangeDuringMiss: joins and leaves racing a coalesced
// cold miss never double-compute on any single node and never strand a
// waiter — every request completes with the same correct plan. Run under
// -race in CI.
func TestTierMembershipChangeDuringMiss(t *testing.T) {
	nodes := startTier(t, []string{"a", "b", "c"}, func() service.Config { return service.Config{} })
	// A cold key that must search: the miss is fetched, and stays in flight
	// for milliseconds, while membership churns.
	req := searchReq(t, 7)

	// Membership churn: a ghost member joins and leaves every node's ring
	// while the miss is in flight. Its address points at a real node so a
	// rerouted fetch still resolves (and is then verified like any fill).
	churnDone := make(chan struct{})
	defer func() { <-churnDone }()
	go func() {
		defer close(churnDone)
		for i := 0; i < 50; i++ {
			for _, tn := range nodes {
				body := `{"node":"ghost","addr":"` + nodes[0].url + `"}`
				resp, err := http.Post(tn.url+"/cluster/join", "application/json", bytes.NewReader([]byte(body)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = http.Post(tn.url+"/cluster/leave", "application/json", bytes.NewReader([]byte(`{"node":"ghost"}`)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	herd(t, 12, tierURLs(nodes), req)
	<-churnDone
	// No node may have computed the key more than once (and herd has seen
	// every waiter answered with the same plan).
	for _, tn := range nodes {
		if m := tn.srv.Cache().Stats().Misses; m > 1 {
			t.Errorf("node %s computed the key %d times", tn.node.NodeID(), m)
		}
	}
	if total := tierMisses(nodes); total < 1 {
		t.Errorf("no node computed the key at all")
	}
	// Rings converged back to the static membership.
	for _, tn := range nodes {
		if tn.node.Ring().Has("ghost") {
			t.Errorf("node %s still has the ghost member", tn.node.NodeID())
		}
	}
}

// TestTierStats: /v2/stats exposes the per-node cluster block — identity,
// members, ownership share, routing and verification counters — and a
// standalone server omits it.
func TestTierStats(t *testing.T) {
	nodes := startTier(t, []string{"a", "b"}, func() service.Config { return service.Config{} })
	// Six misses of each class through a: the proven ones stay, the searched
	// ones split by ownership.
	for seed := int64(1); seed <= 6; seed++ {
		rawPlan(t, nodes[0].url, tierReq(t, seed))
		rawPlan(t, nodes[0].url, searchReq(t, seed))
	}
	cl := service.NewClient(nodes[0].url, nil)
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Cluster
	if cs == nil {
		t.Fatal("tier node stats have no cluster block")
	}
	if cs.NodeID != "a" {
		t.Errorf("node_id = %q", cs.NodeID)
	}
	if len(cs.Members) != 2 {
		t.Errorf("members = %v", cs.Members)
	}
	if cs.OwnershipShare <= 0.2 || cs.OwnershipShare >= 0.8 {
		t.Errorf("ownership_share = %v, want ~0.5", cs.OwnershipShare)
	}
	if st.Plan.MissesProven != 6 || st.Plan.MissesSearched != 6 {
		t.Errorf("misses proven %d, searched %d, want 6 and 6", st.Plan.MissesProven, st.Plan.MissesSearched)
	}
	// Every miss led here was routed one way or the other, only searched
	// ones to the peer, and every fetch ended verified or in a fallback.
	if cs.RoutedLocal+cs.RoutedProxied != st.Plan.MissesProven+st.Plan.MissesSearched {
		t.Errorf("routed local %d + proxied %d, want the %d misses led here",
			cs.RoutedLocal, cs.RoutedProxied, st.Plan.MissesProven+st.Plan.MissesSearched)
	}
	if cs.RoutedProxied < 1 || cs.RoutedProxied > st.Plan.MissesSearched {
		t.Errorf("proxied %d of %d searched misses, want some and no more", cs.RoutedProxied, st.Plan.MissesSearched)
	}
	if cs.RoutedProxied != cs.VerifiedFillAccepts+cs.ProxyFallbacks || cs.ProxyFallbacks != 0 || cs.VerifiedFillRejects != 0 {
		t.Errorf("proxied %d, accepts %d, fallbacks %d, rejects %d: every proxied fill should verify",
			cs.RoutedProxied, cs.VerifiedFillAccepts, cs.ProxyFallbacks, cs.VerifiedFillRejects)
	}

	// /v2/stats serves the same payload.
	resp, err := http.Get(nodes[0].url + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"cluster"`)) {
		t.Errorf("/v2/stats: %s: %s", resp.Status, body)
	}

	standalone := httptest.NewServer(service.New(service.Config{}))
	defer standalone.Close()
	sst, err := service.NewClient(standalone.URL, nil).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sst.Cluster != nil {
		t.Error("standalone server reports a cluster block")
	}
}

// TestNodeLeaveRoutesAway: after Leave, the departing node's own ring
// routes every key to the survivors (it drains by proxying), and the
// survivors no longer own... route to it.
func TestNodeLeaveRoutesAway(t *testing.T) {
	nodes := startTier(t, []string{"a", "b", "c"}, func() service.Config { return service.Config{} })
	a := nodes[0]
	a.node.Leave(context.Background())
	for seed := int64(1); seed <= 20; seed++ {
		_, _, key, err := a.srv.ParsePlanRequest(context.Background(), tierReq(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if owner, local := a.node.Route(key); local {
			t.Fatalf("left node still owns key (owner %q)", owner)
		}
		for _, tn := range nodes[1:] {
			if owner, _ := tn.node.Ring().Owner(key); owner == "a" {
				t.Fatalf("survivor %s still routes to the departed node", tn.node.NodeID())
			}
		}
	}
	// The drained node still serves correctly by proxying.
	req := searchReq(t, 3)
	want := rawPlan(t, nodes[1].url, req)
	if got := rawPlan(t, a.url, req); !bytes.Equal(got, want) {
		t.Fatal("draining node served a different plan")
	}
}
