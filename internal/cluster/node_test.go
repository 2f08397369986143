package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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
		node, err := New(Config{NodeID: id, Peers: peers}, srv)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].srv, nodes[i].node = srv, node
		handlers[i] = srv
	}
	return nodes
}

// fixtureParser parses fixtures for classed; it serves nothing.
var fixtureParser = service.New(service.Config{})

// Every miss is planned on the node it lands on (Server.computePlan), but
// the two classes of miss cost differently, so the tier's tests cover both
// and classed holds each fixture to its own: tierReq is proven at Naive
// without a plan-pool token; searchReq must search and holds a token for
// the whole search. Distinct seeds give distinct cache keys.
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
// of a 3-node tier — owner or not — returns byte-identical bodies, identical
// to a standalone server's, whichever class it is: who computes a plan never
// shows in its bytes.
func TestTierByteIdenticalAcrossNodes(t *testing.T) {
	for _, class := range []struct {
		name string
		req  func(testing.TB, int64) *service.PlanRequest
		// computations is what 5 keys cost the tier: every key, searched or
		// proven, once on every node it lands on.
		computations int
	}{
		{"searched", searchReq, 15},
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
// computation per node — each node's in-process flight merges its own share
// of the herd — and no node asks another: each receives exactly its share of
// /v2/plan requests, none from a peer.
func TestTierCrossNodeSingleflight(t *testing.T) {
	nodes := startTier(t, []string{"a", "b", "c"}, func() service.Config { return service.Config{} })
	req := searchReq(t, 99)
	const n = 24
	herd(t, n, tierURLs(nodes), req)
	for _, tn := range nodes {
		st, err := service.NewClient(tn.url, nil).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		id := tn.node.NodeID()
		if st.Cache.Misses != 1 {
			t.Errorf("node %s computed the key %d times, want exactly 1", id, st.Cache.Misses)
		}
		if want := int64(n / len(nodes)); st.Plan.Requests != want {
			t.Errorf("node %s received %d /v2/plan requests, want its %d of the herd", id, st.Plan.Requests, want)
		}
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

// tamperProxy forwards every request to target and hands each 200 /v2/plan
// body to mutate before answering; it counts the /v2/plan requests it saw.
func tamperProxy(t *testing.T, target string, mutate func([]byte)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var plans atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/plan" {
			plans.Add(1)
		}
		out, err := http.NewRequest(r.Method, target+r.URL.Path, r.Body)
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
		if resp.StatusCode == http.StatusOK && r.URL.Path == "/v2/plan" {
			mutate(body)
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts, &plans
}

// TestTierVerifiedFill: a non-owner serves its own plan even when the owner's
// link lies in a way VerifyFill cannot see. The peer link swaps two entries
// of the launch order in every binary plan frame, a pair whose swap
// re-simulates to the claimed numbers. The non-owner serves a fresh server's
// bytes and the peer sees no request; a direct Node.Fetch over the same link
// accepts the swapped order, so a node that installed fetched plans would
// serve it. A fill that does not re-simulate — one makespan byte flipped —
// is rejected by Node.Fetch.
func TestTierVerifiedFill(t *testing.T) {
	ctx := context.Background()
	honest := service.New(service.Config{})
	if _, err := New(Config{NodeID: "b2"}, honest); err != nil {
		t.Fatal(err)
	}
	honestTS := httptest.NewServer(honest)
	defer honestTS.Close()

	// Which order swap passes VerifyFill depends on the request, so the
	// proxy's swap is picked against the victim's own parse of it.
	var swapI, swapJ int
	var orderOff int
	swapProxy, swapped := tamperProxy(t, honestTS.URL, func(body []byte) {
		b := body[orderOff:]
		for k := 0; k < 4; k++ {
			b[4*swapI+k], b[4*swapJ+k] = b[4*swapJ+k], b[4*swapI+k]
		}
	})
	victim := service.New(service.Config{})
	victimNode, err := New(Config{NodeID: "a2", Peers: map[string]string{"b2": swapProxy.URL}}, victim)
	if err != nil {
		t.Fatal(err)
	}
	victimTS := httptest.NewServer(victim)
	defer victimTS.Close()

	req := searchReq(t, seedOwnedBy(t, &testNode{node: victimNode, srv: victim}, searchReq, "b2"))
	task, opts, key, err := victim.ParsePlanRequest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	standalone := httptest.NewServer(service.New(service.Config{}))
	defer standalone.Close()
	fresh, err := service.NewClient(standalone.URL, nil).PlanV2(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	passing := 0
	for i := range fresh.Order {
		for j := i + 1; j < len(fresh.Order); j++ {
			r := *fresh
			r.Order = append([]int(nil), fresh.Order...)
			r.Order[i], r.Order[j] = r.Order[j], r.Order[i]
			if _, _, err := VerifyFill(task, opts, &r); err == nil {
				if passing == 0 {
					swapI, swapJ = i, j
				}
				passing++
			}
		}
	}
	if passing == 0 {
		t.Fatal("no order swap passes VerifyFill: the fixture no longer shows what a fetch could install")
	}
	t.Logf("%d of %d order swaps pass VerifyFill; the proxy swaps %d and %d",
		passing, len(fresh.Order)*(len(fresh.Order)-1)/2, swapI, swapJ)
	// The plan frame: magic, kind, flags, two u32s, two f64s, then the
	// senders and the order, each a u32 count and one u32 per unit.
	orderOff = 30 + 4 + 4*len(fresh.Senders) + 4

	want := rawPlan(t, standalone.URL, req)
	for round := 0; round < 2; round++ { // cold then cached
		if got := rawPlan(t, victimTS.URL, req); !bytes.Equal(got, want) {
			t.Fatalf("round %d: non-owner served a plan a fresh server does not:\n %s\n vs %s", round, got, want)
		}
	}
	if n := swapped.Load(); n != 0 {
		t.Errorf("the peer received %d /v2/plan requests from a node's misses, want 0", n)
	}
	if m := victim.Cache().Stats().Misses; m != 1 {
		t.Errorf("non-owner computed the key %d times, want 1", m)
	}

	// Node.Fetch over the swapping link accepts the swapped order.
	plan, _, err := victimNode.Fetch(ctx, "b2", key, req, task, opts)
	if err != nil {
		t.Fatalf("direct fetch over the swapping link: %v", err)
	}
	if plan.Order[swapI] != fresh.Order[swapJ] || plan.Order[swapJ] != fresh.Order[swapI] {
		t.Errorf("fetched order %v is not the fresh order %v with %d and %d swapped", plan.Order, fresh.Order, swapI, swapJ)
	}
	if info := victimNode.Info(); info.VerifiedFillAccepts != 1 || info.VerifiedFillRejects != 0 {
		t.Errorf("accepts %d, rejects %d after the swapped fetch, want 1 and 0", info.VerifiedFillAccepts, info.VerifiedFillRejects)
	}

	// A link that corrupts the claimed makespan: the fetch is rejected.
	flipProxy, _ := tamperProxy(t, honestTS.URL, func(body []byte) {
		if len(body) > 22 {
			body[14] ^= 0xff // one makespan byte of the APB1 plan frame
		}
	})
	flipNode, err := New(Config{NodeID: "a3", Peers: map[string]string{"b2": flipProxy.URL}}, service.New(service.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := flipNode.Fetch(ctx, "b2", key, req, task, opts); err == nil {
		t.Error("a fill with a corrupted makespan was accepted")
	}
	info := flipNode.Info()
	if info.VerifiedFillRejects != 1 {
		t.Errorf("rejects = %d, want 1 (tampered fill must not be trusted)", info.VerifiedFillRejects)
	}
	if info.VerifiedFillAccepts != 0 {
		t.Errorf("accepts = %d, want 0", info.VerifiedFillAccepts)
	}
}

// TestTierHungOwnerFallsBack: an owner that accepts the connection and never
// answers costs a node's misses nothing: the herd on a key the hung peer owns
// is planned where it lands, served a standalone server's bytes well inside
// fetchBound, and the hung peer receives no request. A direct Node.Fetch
// against the hung peer is what waits out fetchBound.
func TestTierHungOwnerFallsBack(t *testing.T) {
	release := make(chan struct{})
	var hungPlans atomic.Int64
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/plan" {
			hungPlans.Add(1)
		}
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
	ts := httptest.NewServer(srv)
	defer ts.Close()
	standalone := httptest.NewServer(service.New(service.Config{}))
	defer standalone.Close()

	req := searchReq(t, seedOwnedBy(t, &testNode{node: node, srv: srv}, searchReq, "hung"))
	want := string(rawPlan(t, standalone.URL, req))
	start := time.Now()
	if got := herd(t, 6, []string{ts.URL}, req)[0]; got != want {
		t.Fatalf("herd plan differs from a standalone server's:\n %s\n vs %s", got, want)
	}
	if took := time.Since(start); took >= fetchBound {
		t.Errorf("herd served after %v, want well inside the %v fetch bound", took, fetchBound)
	}
	if n := hungPlans.Load(); n != 0 {
		t.Errorf("the hung peer received %d /v2/plan requests from the herd, want 0", n)
	}
	st, err := service.NewClient(ts.URL, nil).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs := st.Cluster; cs.RoutedLocal != 1 || cs.RoutedProxied != 0 || cs.ProxyFallbacks != 0 || st.Cache.Misses != 1 {
		t.Errorf("local %d, proxied %d, fallbacks %d, computations %d: want one local computation and nothing else",
			cs.RoutedLocal, cs.RoutedProxied, cs.ProxyFallbacks, st.Cache.Misses)
	}

	// The fetch bound itself, on a direct fetch from the hung peer.
	task, opts, key, err := srv.ParsePlanRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, _, err := node.Fetch(context.Background(), "hung", key, req, task, opts); err == nil {
		t.Error("a fetch from a hung peer succeeded")
	}
	// Generous on the far side: the bound and a loaded CI box.
	if took := time.Since(start); took < fetchBound || took > fetchBound+5*time.Second {
		t.Errorf("fetch returned after %v, want shortly after the %v fetch bound", took, fetchBound)
	}
	if n := hungPlans.Load(); n != 1 {
		t.Errorf("the hung peer received %d /v2/plan requests, want the fetch's 1", n)
	}
}

// rawCall sends one request and returns its status and body.
func rawCall(baseURL, method, path, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, baseURL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// TestTierMembershipChangeDuringMiss: a node's membership is its
// configuration. Membership calls racing a coalesced cold miss get the 404
// a standalone server gives, never double-compute on any single node and
// never strand a waiter — every request completes with the same plan — and
// every node still reports the configured members. Run under -race in CI.
func TestTierMembershipChangeDuringMiss(t *testing.T) {
	nodes := startTier(t, []string{"a", "b", "c"}, func() service.Config { return service.Config{} })
	// A cold key that must search: the miss is planned where it lands, and
	// stays in flight for milliseconds, while the membership calls arrive.
	req := searchReq(t, 7)
	// The joins, leaves and member listings a tier node once served.
	membershipCalls := []struct{ method, path, body string }{
		{http.MethodPost, "/cluster/join", `{"node":"ghost","addr":"http://127.0.0.1:1"}`},
		{http.MethodPost, "/cluster/leave", `{"node":"ghost"}`},
		{http.MethodGet, "/cluster/members", ""},
	}

	standalone := httptest.NewServer(service.New(service.Config{}))
	defer standalone.Close()
	wantStatus := make([]int, len(membershipCalls))
	wantBody := make([][]byte, len(membershipCalls))
	for i, c := range membershipCalls {
		status, body, err := rawCall(standalone.URL, c.method, c.path, c.body)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusNotFound {
			t.Fatalf("standalone %s %s: status %d, want 404", c.method, c.path, status)
		}
		wantStatus[i], wantBody[i] = status, body
	}

	// Every membership call on every node, 50 rounds, while the herd runs.
	churnErr := make(chan error, 1)
	go func() {
		defer close(churnErr)
		for round := 0; round < 50; round++ {
			for _, tn := range nodes {
				for i, c := range membershipCalls {
					status, body, err := rawCall(tn.url, c.method, c.path, c.body)
					if err != nil {
						churnErr <- err
						return
					}
					if status != wantStatus[i] || !bytes.Equal(body, wantBody[i]) {
						churnErr <- fmt.Errorf("node %s %s %s: %d %q, want a standalone server's %d %q",
							tn.node.NodeID(), c.method, c.path, status, body, wantStatus[i], wantBody[i])
						return
					}
				}
			}
		}
	}()
	herd(t, 12, tierURLs(nodes), req)
	if err := <-churnErr; err != nil {
		t.Error(err)
	}
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
	for _, tn := range nodes {
		st, err := service.NewClient(tn.url, nil).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(st.Cluster.Members, ","); got != "a,b,c" {
			t.Errorf("node %s reports members %s, want the configured a,b,c", tn.node.NodeID(), got)
		}
	}
}

// TestTierStats: /v2/stats exposes the per-node cluster block — identity,
// members, ownership share, the miss count and the always-zero fetch
// counters — and a standalone server omits it.
func TestTierStats(t *testing.T) {
	nodes := startTier(t, []string{"a", "b"}, func() service.Config { return service.Config{} })
	// Six misses of each class through a, whoever owns them: all planned
	// on a.
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
	// Every miss led here was planned here; nothing was fetched.
	if cs.RoutedLocal != st.Plan.MissesProven+st.Plan.MissesSearched {
		t.Errorf("routed local %d, want the %d misses led here",
			cs.RoutedLocal, st.Plan.MissesProven+st.Plan.MissesSearched)
	}
	if cs.RoutedProxied != 0 || cs.ProxyFallbacks != 0 || cs.VerifiedFillAccepts != 0 || cs.VerifiedFillRejects != 0 {
		t.Errorf("proxied %d, fallbacks %d, accepts %d, rejects %d: want all 0",
			cs.RoutedProxied, cs.ProxyFallbacks, cs.VerifiedFillAccepts, cs.VerifiedFillRejects)
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

// TestNodeLeaveRoutesAway: a node leaves a tier by leaving the member list
// its clients route on. A client ring built from the list without a owns no
// key by a, so a receives nothing from a routing client. A still plans what
// it does receive, serving a fresh server's bytes and asking no survivor.
func TestNodeLeaveRoutesAway(t *testing.T) {
	nodes := startTier(t, []string{"a", "b", "c"}, func() service.Config { return service.Config{} })
	a := nodes[0]
	client := NewRing()
	client.Add("b")
	client.Add("c")
	for seed := int64(1); seed <= 20; seed++ {
		_, _, key, err := a.srv.ParsePlanRequest(context.Background(), tierReq(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if owner, ok := client.Owner(key); !ok || owner == "a" {
			t.Fatalf("a client ring without a routes key %q to %q", key, owner)
		}
	}
	req := searchReq(t, 3)
	standalone := httptest.NewServer(service.New(service.Config{}))
	defer standalone.Close()
	want := rawPlan(t, standalone.URL, req)
	if got := rawPlan(t, a.url, req); !bytes.Equal(got, want) {
		t.Fatal("the node left out of the list served a plan a fresh server does not")
	}
	if m := a.srv.Cache().Stats().Misses; m != 1 {
		t.Errorf("the node left out of the list computed the key %d times, want 1", m)
	}
	for _, tn := range nodes[1:] {
		st, err := service.NewClient(tn.url, nil).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Plan.Requests != 0 {
			t.Errorf("survivor %s received %d /v2/plan requests, want 0", tn.node.NodeID(), st.Plan.Requests)
		}
	}
}
