package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"alpacomm/internal/service"
)

// Snapshot file format ("APSN", version 2, little-endian):
//
//	magic "APSN" | version u8 | count u32 |
//	count × record
//	record: req_len u32 | request JSON
//
// A record is the wire request that filled a cache entry. A plan is a pure
// function of its request, so the file holds no plans: Restore replays each
// request through the server's own miss path (Server.Replay), and the plan
// installed is the one this node computes. The snapshot is untrusted input
// that cannot install a wrong plan: a record that does not decode to a
// request this node can plan is skipped, a record edited into another valid
// request fills that request's own entry, and length-prefixed framing keeps
// the stream in sync so every other record still restores. A version-1
// file (which paired each request with a plan frame) is refused whole.

var snapMagic = [4]byte{'A', 'P', 'S', 'N'}

const snapVersion = 2

// maxSnapRecordBytes bounds one record's decoded length: snapshot files
// are untrusted, so a corrupt length must not drive an oversized
// allocation.
const maxSnapRecordBytes = 16 << 20

// SnapshotStats reports one snapshot or restore pass.
type SnapshotStats struct {
	// Entries is the number of records written (snapshot) or present
	// (restore), a short tail counted as one.
	Entries int `json:"entries"`
	// Restored / Rejected split a restore's records into requests replayed
	// into the cache and records that are corrupt or name no request this
	// node can plan; both zero on snapshot.
	Restored int `json:"restored"`
	Rejected int `json:"rejected"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
}

// Snapshot persists the server's plan cache to path as the requests that
// filled its entries, hottest first; an entry no request names (a degraded
// fill) is left out. The write is atomic (temp file + rename), so a crash
// mid-snapshot leaves the previous snapshot intact.
func (n *Node) Snapshot(path string) (SnapshotStats, error) {
	var st SnapshotStats
	buf := make([]byte, 9, 4096)
	copy(buf, snapMagic[:])
	buf[4] = snapVersion
	for _, p := range n.srv.ExportPlans() {
		if p.Request == nil {
			continue
		}
		rb, err := json.Marshal(p.Request)
		if err != nil {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rb)))
		buf = append(buf, rb...)
		st.Entries++
	}
	binary.LittleEndian.PutUint32(buf[5:9], uint32(st.Entries))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return SnapshotStats{}, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return SnapshotStats{}, err
	}
	if err := tmp.Close(); err != nil {
		return SnapshotStats{}, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return SnapshotStats{}, err
	}
	st.Bytes = int64(len(buf))
	return st, nil
}

// Restore warm-starts the cache from a snapshot written by Snapshot: every
// record's request is replayed through Server.Replay, which plans it on
// this node as a miss. A corrupt record is counted and skipped on its own;
// a framing-level corruption (bad magic, a length running past the file)
// stops the scan and reports the records salvaged before it, the short
// tail as one rejected record whatever count the header promised. A missing
// file is not an error: a cold start restores nothing.
func (n *Node) Restore(ctx context.Context, path string) (SnapshotStats, error) {
	var st SnapshotStats
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	st.Bytes = int64(len(data))
	if len(data) < 9 || [4]byte(data[:4]) != snapMagic {
		return st, fmt.Errorf("cluster: %s is not a snapshot file", path)
	}
	if data[4] != snapVersion {
		return st, fmt.Errorf("cluster: snapshot version %d, want %d", data[4], snapVersion)
	}
	count := int(binary.LittleEndian.Uint32(data[5:9]))
	off := 9
	for i := 0; i < count; i++ {
		st.Entries++
		if len(data)-off < 4 || int(binary.LittleEndian.Uint32(data[off:])) > min(maxSnapRecordBytes, len(data)-off-4) {
			st.Rejected++
			n.rejectedR.Add(1)
			return st, fmt.Errorf("cluster: snapshot truncated at record %d of %d (%d restored)", i, count, st.Restored)
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		if n.restoreRecord(ctx, data[off+4:off+4+l]) {
			st.Restored++
		} else {
			st.Rejected++
		}
		off += 4 + l
	}
	return st, nil
}

// restoreRecord replays one snapshot record; see Restore.
func (n *Node) restoreRecord(ctx context.Context, reqB []byte) bool {
	var req service.PlanRequest
	ok := json.Unmarshal(reqB, &req) == nil
	if ok {
		_, err := n.srv.Replay(ctx, &req)
		ok = err == nil
	}
	if ok {
		n.restored.Add(1)
	} else {
		n.rejectedR.Add(1)
	}
	return ok
}

// SnapshotLoop snapshots every interval until ctx ends, then writes one
// final snapshot — the shutdown path's "persist what we drained with".
// Errors are reported through report (nil to ignore): a failed periodic
// snapshot must not kill serving.
func (n *Node) SnapshotLoop(ctx context.Context, path string, interval time.Duration, report func(error)) {
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := n.Snapshot(path); err != nil && report != nil {
				report(err)
			}
		case <-ctx.Done():
			if _, err := n.Snapshot(path); err != nil && report != nil {
				report(err)
			}
			return
		}
	}
}
