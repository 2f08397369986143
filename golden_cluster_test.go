// Distributed serving parity against the golden fixtures: a 3-node tier
// (built through the public facade, like a deployment would) serves every
// reshard of testdata/golden_netsim.json from EVERY node, and each response
// must be byte-identical to a standalone server's — every node plans the
// misses that land on it, so the node that computes never shows in the
// plan. A
// snapshot/restore round trip over the same fixtures must preserve that
// byte identity through a warm restart.
package alpacomm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	alpacomm "alpacomm"
	"alpacomm/internal/service"
)

// goldenTier builds an n-node tier through the facade over loopback HTTP.
func goldenTier(t *testing.T, ids []string) ([]*alpacomm.ClusterNode, []*httptest.Server) {
	t.Helper()
	nodes := make([]*alpacomm.ClusterNode, len(ids))
	servers := make([]*httptest.Server, len(ids))
	handlers := make([]http.Handler, len(ids))
	for i := range ids {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(servers[i].Close)
	}
	for i, id := range ids {
		peers := map[string]string{}
		for j, pid := range ids {
			if j != i {
				peers[pid] = servers[j].URL
			}
		}
		srv := alpacomm.NewPlanServer(alpacomm.PlanServerConfig{})
		node, err := alpacomm.NewClusterNode(alpacomm.ClusterNodeConfig{NodeID: id, Peers: peers}, srv)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		handlers[i] = srv
	}
	return nodes, servers
}

// goldenRawPlan returns the raw /v2/plan response body for byte-level
// comparison.
func goldenRawPlan(t *testing.T, baseURL string, req *service.PlanRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v2/plan", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", baseURL, resp.Status, body)
	}
	return body
}

// goldenFixtureRequests loads golden_netsim.json and returns one wire
// request per reshard fixture plus its expected-plan check.
func goldenFixtureRequests(t *testing.T) []*service.PlanRequest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_netsim.json"))
	if err != nil {
		t.Fatalf("missing golden fixtures (run go test -run TestGolden -update .): %v", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*service.PlanRequest, 0, len(g.Reshards))
	for _, r := range g.Reshards {
		reqs = append(reqs, goldenWireRequest(
			goldenWireTopology(t, r.Preset, false),
			goldenWireOptions(t, r.Strategy), nil))
	}
	return reqs
}

// TestGoldenClusterByteIdentity: every golden reshard served from every
// node of a 3-node tier, twice, is byte-identical to the standalone answer,
// and each node computed each distinct fixture key exactly once: the first
// round's misses are planned where they land, the second round hits.
func TestGoldenClusterByteIdentity(t *testing.T) {
	reqs := goldenFixtureRequests(t)
	standalone := httptest.NewServer(alpacomm.NewPlanServer(alpacomm.PlanServerConfig{}))
	defer standalone.Close()
	_, servers := goldenTier(t, []string{"a", "b", "c"})
	want := make([][]byte, len(reqs))
	keys := map[string]bool{}
	for i, req := range reqs {
		want[i] = goldenRawPlan(t, standalone.URL, req)
		var resp service.PlanResponse
		if err := json.Unmarshal(want[i], &resp); err != nil {
			t.Fatal(err)
		}
		keys[resp.Key] = true
	}
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			for ni, ts := range servers {
				if got := goldenRawPlan(t, ts.URL, req); !bytes.Equal(got, want[i]) {
					t.Fatalf("round %d node %d serves different bytes for %s/%s:\n got %s\nwant %s",
						round, ni, req.Topology.Name, req.Options.Strategy, got, want[i])
				}
			}
		}
	}
	for ni, ts := range servers {
		st, err := alpacomm.NewPlanClient(ts.URL, nil).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Cache.Misses != len(keys) {
			t.Errorf("node %d computed %d plans for %d distinct fixture keys, want one each", ni, st.Cache.Misses, len(keys))
		}
	}
}

// TestGoldenClusterSnapshotRoundTrip: snapshot each tier node after
// serving the golden fixtures, restore into a fresh tier with the same
// identities, and every fixture serves byte-identically — without a
// single recomputation on the restored owners.
func TestGoldenClusterSnapshotRoundTrip(t *testing.T) {
	reqs := goldenFixtureRequests(t)
	ids := []string{"a", "b", "c"}
	warmNodes, warmServers := goldenTier(t, ids)
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		// Serve through every node so each holds every fixture with the
		// request that filled it.
		for _, ts := range warmServers {
			want[i] = goldenRawPlan(t, ts.URL, req)
		}
	}
	dir := t.TempDir()
	paths := make([]string, len(ids))
	total := 0
	for i, node := range warmNodes {
		paths[i] = filepath.Join(dir, "plans-"+ids[i]+".snap")
		st, err := node.Snapshot(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		total += st.Entries
	}
	if total < len(reqs) {
		t.Fatalf("tier snapshots hold %d entries for %d fixtures", total, len(reqs))
	}

	coldNodes, coldServers := goldenTier(t, ids)
	replayed := make([]int, len(ids))
	for i, node := range coldNodes {
		st, err := node.Restore(context.Background(), paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if st.Rejected != 0 || st.Restored != st.Entries {
			t.Fatalf("node %s restore %+v: golden snapshot must replay clean", ids[i], st)
		}
		// The replay plans each record on its node and counts it a miss;
		// what follows is measured from here.
		cs, err := alpacomm.NewPlanClient(coldServers[i].URL, nil).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		replayed[i] = cs.Cache.Misses
	}
	for i, req := range reqs {
		for ni, ts := range coldServers {
			if got := goldenRawPlan(t, ts.URL, req); !bytes.Equal(got, want[i]) {
				t.Fatalf("restored node %d serves different bytes for fixture %d", ni, i)
			}
		}
	}
	// Every fixture was served from every restored node, so any planner
	// computation anywhere in the tier would show as a cache miss.
	for ni, ts := range coldServers {
		st, err := alpacomm.NewPlanClient(ts.URL, nil).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if misses := st.Cache.Misses - replayed[ni]; misses != 0 {
			t.Fatalf("restored node %d recomputed %d plan(s) while serving, want 0", ni, misses)
		}
	}
}
