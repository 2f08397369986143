package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// Snapshot file format ("APSN", version 1, little-endian):
//
//	magic "APSN" | version u8 | count u32 |
//	count × record
//	record: req_len u32 | request JSON | frame_len u32 | binary plan frame
//
// A record pairs the wire request that filled a cache entry with the
// entry's pre-serialized binary plan frame — the exact bytes a
// binary-negotiated /v2/plan response carries, reused as the persistence
// format. Restore replays each record from scratch: parse the request,
// decode the frame, gate the plan through VerifyFill exactly as a peer
// fill would be, and hold it to the plan this node computes for the
// request. The snapshot is therefore untrusted input — a corrupt or
// tampered record fails its own verification and is skipped,
// while length-prefixed framing keeps the stream in sync so every other
// record still restores.

var snapMagic = [4]byte{'A', 'P', 'S', 'N'}

const snapVersion = 1

// maxSnapRecordBytes bounds one record's decoded lengths: snapshot files
// are untrusted, so a corrupt length must not drive an oversized
// allocation.
const maxSnapRecordBytes = 16 << 20

// SnapshotStats reports one snapshot or restore pass.
type SnapshotStats struct {
	// Entries is the number of records written (snapshot) or present
	// (restore).
	Entries int `json:"entries"`
	// Restored / Rejected split a restore's records into replay-verified
	// installs and corrupt-or-stale skips; both zero on snapshot.
	Restored int `json:"restored"`
	Rejected int `json:"rejected"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
}

// Snapshot persists the server's plan cache to path: every completed
// entry whose fill request is still journaled, hottest first. The write
// is atomic (temp file + rename), so a crash mid-snapshot leaves the
// previous snapshot intact; the journal is swept to the resident key set
// as a side effect.
func (n *Node) Snapshot(path string) (SnapshotStats, error) {
	var st SnapshotStats
	plans := n.srv.ExportPlans()
	resident := make(map[string]bool, len(plans))
	type rec struct {
		req   []byte
		frame []byte
	}
	recs := make([]rec, 0, len(plans))
	for _, p := range plans {
		resident[p.Key] = true
		req := n.journal.get(p.Key)
		if req == nil {
			// Filled outside the routed path (e.g. a pre-warmed shared
			// cache): not replayable, so not persistable.
			continue
		}
		rb, err := json.Marshal(req)
		if err != nil {
			continue
		}
		recs = append(recs, rec{req: rb, frame: p.Frame})
	}
	n.journal.sweep(resident)

	size := 4 + 1 + 4
	for _, r := range recs {
		size += 8 + len(r.req) + len(r.frame)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic[:]...)
	buf = append(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.req)))
		buf = append(buf, r.req...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.frame)))
		buf = append(buf, r.frame...)
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return st, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return st, err
	}
	if err := tmp.Close(); err != nil {
		return st, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return st, err
	}
	st.Entries = len(recs)
	st.Bytes = int64(len(buf))
	return st, nil
}

// Restore warm-starts the cache from a snapshot written by Snapshot:
// every record is replayed from scratch — request parsed, frame decoded,
// plan re-simulated and compared via VerifyFill, then compared with the
// plan drafted and finished here — and only verified entries are
// installed. Corrupt records are counted and skipped
// individually; a framing-level corruption (bad magic, a length running
// past the file) stops the scan and reports the records salvaged before
// it. A missing file is not an error: a cold start restores nothing.
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
	st.Entries = count
	off := 9
	readBlob := func() ([]byte, bool) {
		if len(data)-off < 4 {
			return nil, false
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if l > maxSnapRecordBytes || l > len(data)-off {
			return nil, false
		}
		b := data[off : off+l]
		off += l
		return b, true
	}
	for i := 0; i < count; i++ {
		reqB, ok := readBlob()
		if !ok {
			st.Rejected += count - i
			n.rejectedR.Add(int64(count - i))
			return st, fmt.Errorf("cluster: snapshot truncated at record %d (%d restored)", i, st.Restored)
		}
		frame, ok := readBlob()
		if !ok {
			st.Rejected += count - i
			n.rejectedR.Add(int64(count - i))
			return st, fmt.Errorf("cluster: snapshot truncated at record %d (%d restored)", i, st.Restored)
		}
		if n.restoreRecord(ctx, reqB, frame) {
			st.Restored++
		} else {
			st.Rejected++
		}
	}
	return st, nil
}

// restoreRecord replays one snapshot record through the same verification
// gate as a peer fill; see Restore.
func (n *Node) restoreRecord(ctx context.Context, reqB, frame []byte) bool {
	ok := func() bool {
		var req service.PlanRequest
		if err := json.Unmarshal(reqB, &req); err != nil {
			return false
		}
		task, opts, key, err := n.srv.ParsePlanRequest(ctx, &req)
		if err != nil {
			return false
		}
		resp, err := service.DecodePlanFrame(frame)
		if err != nil {
			return false
		}
		if resp.Key != key {
			return false
		}
		plan, sim, err := VerifyFill(task, opts, resp)
		if err != nil {
			return false
		}
		// A tampered frame can name another plan that simulates to the
		// same numbers (a tie); only the plan this node would compute
		// itself installs.
		d, err := resharding.NewDraft(task, opts)
		if err != nil {
			return false
		}
		own, err := d.Plan(ctx)
		if err != nil || !slices.Equal(own.Order, plan.Order) || !maps.Equal(own.SenderOf, plan.SenderOf) {
			return false
		}
		n.srv.InstallPlan(key, plan, sim, opts)
		n.journal.put(key, &req)
		return true
	}()
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
