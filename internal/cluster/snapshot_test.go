package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// fillTier serves seeds 1..n through the node and returns the raw response
// bodies keyed by seed — the reference for byte-identity after restore.
func fillTier(t *testing.T, tn *testNode, n int) map[int64][]byte {
	t.Helper()
	bodies := make(map[int64][]byte, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		bodies[seed] = rawPlan(t, tn.url, tierReq(t, seed))
	}
	return bodies
}

// recordRegion walks the snapshot's length-prefixed records and returns the
// byte range of record rec's request JSON.
func recordRegion(t testing.TB, data []byte, rec int) (start, length int) {
	t.Helper()
	off := 9 // magic + version + count
	for i := 0; ; i++ {
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if i == rec {
			return off, l
		}
		off += l
	}
}

// replaceRecord returns a copy of the snapshot with record rec's request
// JSON replaced by req, length prefix and all.
func replaceRecord(t testing.TB, data []byte, rec int, req []byte) []byte {
	t.Helper()
	start, length := recordRegion(t, data, rec)
	out := binary.LittleEndian.AppendUint32(bytes.Clone(data[:start-4]), uint32(len(req)))
	out = append(out, req...)
	return append(out, data[start+length:]...)
}

// TestSnapshotRoundTrip: snapshot a filled node, restore into a fresh one,
// and every restored key serves byte-identical bodies as pure cache hits.
func TestSnapshotRoundTrip(t *testing.T) {
	const n = 12
	path := filepath.Join(t.TempDir(), "plans.snap")
	warm := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	bodies := fillTier(t, warm, n)
	st, err := warm.node.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n || st.Bytes <= 0 {
		t.Fatalf("snapshot stats = %+v, want %d entries", st, n)
	}

	cold := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	rst, err := cold.node.Restore(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Restored != n || rst.Rejected != 0 {
		t.Fatalf("restore stats = %+v, want %d restored, 0 rejected", rst, n)
	}
	if info := cold.node.Info(); info.SnapshotRestored != n || info.SnapshotRejected != 0 {
		t.Errorf("node counters = %d restored / %d rejected", info.SnapshotRestored, info.SnapshotRejected)
	}
	// The replay plans each record once on this node, so it counts as
	// one miss per record; serving afterwards must count none.
	replayed := cold.srv.Cache().Stats()
	if replayed.Misses != n || replayed.Hits != 0 {
		t.Errorf("restore counted %d misses / %d hits, want %d / 0", replayed.Misses, replayed.Hits, n)
	}
	for seed, want := range bodies {
		if got := rawPlan(t, cold.url, tierReq(t, seed)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: restored body differs\n got %s\nwant %s", seed, got, want)
		}
	}
	cs := cold.srv.Cache().Stats()
	if misses, hits := cs.Misses-replayed.Misses, cs.Hits-replayed.Hits; misses != 0 || hits != n {
		t.Errorf("warm restart served %d misses / %d hits, want 0 / %d", misses, hits, n)
	}

	// A re-snapshot of the restored node round-trips to the same record
	// set (each replayed entry keeps its request).
	path2 := filepath.Join(t.TempDir(), "plans2.snap")
	st2, err := cold.node.Snapshot(path2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Entries != n {
		t.Errorf("re-snapshot entries = %d, want %d", st2.Entries, n)
	}
}

// TestSnapshotKeepsEveryResidentEntry: every resident entry is written,
// however many distinct keys passed through the cache before the snapshot.
func TestSnapshotKeepsEveryResidentEntry(t *testing.T) {
	const n = 1030
	tn := startTier(t, []string{"solo"}, func() service.Config {
		return service.Config{Cache: resharding.NewLRUPlanCache(1)}
	})[0]
	h := tn.srv
	var last []byte
	for seed := int64(1); seed <= n; seed++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/plan", bytes.NewReader(mustJSON(t, tierReq(t, seed)))))
		if w.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, w.Code, w.Body.Bytes())
		}
		last = w.Body.Bytes()
	}
	path := filepath.Join(t.TempDir(), "plans.snap")
	st, err := tn.node.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("snapshot of a one-entry cache holds %d records, want 1", st.Entries)
	}
	cold := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	if rst, err := cold.node.Restore(context.Background(), path); err != nil || rst.Restored != 1 {
		t.Fatalf("restore stats = %+v, err %v, want 1 restored", rst, err)
	}
	replayed := cold.srv.Cache().Stats()
	if got := rawPlan(t, cold.url, tierReq(t, n)); !bytes.Equal(got, last) {
		t.Fatalf("restored resident entry serves\n %s\nwant\n %s", got, last)
	}
	if cs := cold.srv.Cache().Stats(); cs.Misses != replayed.Misses {
		t.Errorf("the resident entry was recomputed after restore")
	}
}

// TestSnapshotCorruptFrame: a record whose request JSON is corrupt is
// rejected on its own. Every other record restores, and every key —
// the rejected one recomputed on demand — serves its original bytes.
func TestSnapshotCorruptFrame(t *testing.T) {
	const n, corrupt = 6, 2
	path := filepath.Join(t.TempDir(), "plans.snap")
	warm := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	bodies := fillTier(t, warm, n)
	if _, err := warm.node.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start, _ := recordRegion(t, data, corrupt)
	data[start] = 0xff // no JSON value starts with this byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cold := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	rst, err := cold.node.Restore(context.Background(), path)
	if err != nil {
		t.Fatal(err) // framing is intact; only the one record may fail
	}
	if rst.Restored != n-1 || rst.Rejected != 1 {
		t.Fatalf("restore stats = %+v, want %d restored, 1 rejected", rst, n-1)
	}
	replayed := cold.srv.Cache().Stats()
	for seed, want := range bodies {
		if got := rawPlan(t, cold.url, tierReq(t, seed)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: body differs after corrupt restart\n got %s\nwant %s", seed, got, want)
		}
	}
	if cs := cold.srv.Cache().Stats(); cs.Misses-replayed.Misses != 1 {
		t.Errorf("recomputed %d entries, want exactly the rejected one", cs.Misses-replayed.Misses)
	}
}

// TestSnapshotTamperedTieRejected: a tampered record cannot install a plan
// this node would not compute. A record holds only a request, so a plan
// with a swapped launch order cannot be written into it; what can be
// edited is the request. Edited into an invalid problem, the record is
// rejected; edited into another valid problem, it restores and serves the
// bytes a fresh server gives the edited request. Either way the original
// key serves its original bytes, recomputed on demand.
func TestSnapshotTamperedTieRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	warm := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	bodies := fillTier(t, warm, 1)
	if _, err := warm.node.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	invalid := tierReq(t, 1)
	invalid.Topology.Name = "no-such-topology"
	if err := os.WriteFile(path, replaceRecord(t, data, 0, mustJSON(t, invalid)), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	rst, err := cold.node.Restore(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Restored != 0 || rst.Rejected != 1 {
		t.Fatalf("restore stats = %+v, want the tampered record rejected", rst)
	}
	if got := rawPlan(t, cold.url, tierReq(t, 1)); !bytes.Equal(got, bodies[1]) {
		t.Fatalf("body differs after a tampered restart\n got %s\nwant %s", got, bodies[1])
	}

	edited := tierReq(t, 1)
	edited.Shape = []int{256, 128}
	if err := os.WriteFile(path, replaceRecord(t, data, 0, mustJSON(t, edited)), 0o644); err != nil {
		t.Fatal(err)
	}
	cold = startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	if rst, err = cold.node.Restore(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if rst.Restored != 1 || rst.Rejected != 0 {
		t.Fatalf("restore stats = %+v, want the edited record replayed", rst)
	}
	replayed := cold.srv.Cache().Stats()
	want := serveJSON(t, service.New(service.Config{}), mustJSON(t, edited))
	if got := rawPlan(t, cold.url, edited); !bytes.Equal(got, want) {
		t.Fatalf("edited record serves\n %s\na fresh server serves\n %s", got, want)
	}
	if got := rawPlan(t, cold.url, tierReq(t, 1)); !bytes.Equal(got, bodies[1]) {
		t.Fatalf("body differs after an edited restart\n got %s\nwant %s", got, bodies[1])
	}
	if cs := cold.srv.Cache().Stats(); cs.Misses-replayed.Misses != 1 {
		t.Errorf("recomputed %d entries, want exactly the edited record's original key", cs.Misses-replayed.Misses)
	}
}

// TestSnapshotTruncated: a snapshot cut mid-record restores everything
// before the cut, counts the short tail as one rejected record, and
// reports the error.
func TestSnapshotTruncated(t *testing.T) {
	const n = 5
	path := filepath.Join(t.TempDir(), "plans.snap")
	warm := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	fillTier(t, warm, n)
	if _, err := warm.node.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart, _ := recordRegion(t, data, n-1)
	if err := os.WriteFile(path, data[:lastStart+3], 0o644); err != nil {
		t.Fatal(err)
	}

	cold := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	rst, err := cold.node.Restore(context.Background(), path)
	if err == nil {
		t.Fatal("truncated snapshot restored without error")
	}
	if rst.Restored != n-1 || rst.Rejected != 1 {
		t.Errorf("restore stats = %+v, want %d restored, 1 rejected", rst, n-1)
	}

	// A bare header promising 2^32−1 records holds none: its short tail is
	// one framing error, in the stats and in the node's counter alike.
	if err := os.WriteFile(path, []byte("APSN\x02\xff\xff\xff\xff"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	rst, err = empty.node.Restore(context.Background(), path)
	if err == nil {
		t.Fatal("header-only snapshot restored without error")
	}
	if rst.Entries != 1 || rst.Restored != 0 || rst.Rejected != 1 {
		t.Errorf("header-only restore stats = %+v, want 1 entry, 0 restored, 1 rejected", rst)
	}
	if got := empty.node.Info().SnapshotRejected; got != 1 {
		t.Errorf("snapshot_rejected = %d after a header-only restore, want 1", got)
	}
}

// TestSnapshotColdStart: a missing snapshot file is a clean cold start,
// and a non-snapshot file is refused outright.
func TestSnapshotColdStart(t *testing.T) {
	tn := startTier(t, []string{"solo"}, func() service.Config { return service.Config{} })[0]
	st, err := tn.node.Restore(context.Background(), filepath.Join(t.TempDir(), "absent.snap"))
	if err != nil || st.Entries != 0 {
		t.Fatalf("missing file: stats %+v, err %v", st, err)
	}
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.node.Restore(context.Background(), bad); err == nil {
		t.Fatal("garbage file accepted as snapshot")
	}
}
