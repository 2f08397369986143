package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

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

// frameRegion walks the snapshot's length-prefixed records and returns the
// byte range of record rec's plan frame.
func frameRegion(t testing.TB, data []byte, rec int) (start, length int) {
	t.Helper()
	off := 9 // magic + version + count
	for i := 0; ; i++ {
		reqLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4 + reqLen
		frameLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if i == rec {
			return off, frameLen
		}
		off += frameLen
	}
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
	for seed, want := range bodies {
		if got := rawPlan(t, cold.url, tierReq(t, seed)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: restored body differs\n got %s\nwant %s", seed, got, want)
		}
	}
	cs := cold.srv.Cache().Stats()
	if cs.Misses != 0 || cs.Hits != n {
		t.Errorf("warm restart served %d misses / %d hits, want 0 / %d", cs.Misses, cs.Hits, n)
	}

	// A re-snapshot of the restored node round-trips to the same record
	// set (the journal was rebuilt during restore).
	path2 := filepath.Join(t.TempDir(), "plans2.snap")
	st2, err := cold.node.Snapshot(path2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Entries != n {
		t.Errorf("re-snapshot entries = %d, want %d", st2.Entries, n)
	}
}

// TestSnapshotCorruptFrame: flipping one byte of one record's claimed
// makespan rejects exactly that entry on restart — replay verification
// catches it — while every other record restores and serves.
func TestSnapshotCorruptFrame(t *testing.T) {
	const n = 6
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
	start, length := frameRegion(t, data, 2)
	if length <= 22 {
		t.Fatalf("frame unexpectedly small: %d bytes", length)
	}
	data[start+14] ^= 0xff // one byte of the frame's makespan field
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
	// Every key — including the rejected one, recomputed on demand —
	// serves the original bytes.
	for seed, want := range bodies {
		if got := rawPlan(t, cold.url, tierReq(t, seed)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: body differs after corrupt restart", seed)
		}
	}
	if cs := cold.srv.Cache().Stats(); cs.Misses != 1 {
		t.Errorf("recomputed %d entries, want exactly the rejected one", cs.Misses)
	}
}

// swapOrder swaps the first two launch-order entries of record rec's plan
// frame in place: a tampered frame whose plan re-simulates to the claimed
// numbers whenever the two units tie.
func swapOrder(t testing.TB, snap []byte, rec int) {
	t.Helper()
	start, _ := frameRegion(t, snap, rec)
	units := int(binary.LittleEndian.Uint32(snap[start+6:])) // after magic, kind, flags
	order := start + 34 + 4*units + 4                        // the senders, then the order count
	var first [4]byte
	copy(first[:], snap[order:])
	copy(snap[order:order+4], snap[order+4:order+8])
	copy(snap[order+4:order+8], first[:])
}

// TestSnapshotTamperedTieRejected: a frame whose launch order was swapped
// still re-simulates to its claimed numbers (the units tie), so only
// comparing with the plan the node computes itself keeps it out; the key
// is recomputed on demand and serves the original bytes.
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
	swapOrder(t, data, 0)
	if err := os.WriteFile(path, data, 0o644); err != nil {
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
}

// TestSnapshotTruncated: a snapshot cut mid-record restores everything
// before the cut, counts the rest rejected, and reports the error.
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
	lastStart, _ := frameRegion(t, data, n-1)
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
