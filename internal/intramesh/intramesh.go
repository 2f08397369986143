// Package intramesh implements layout conversion within a single device
// mesh — the §2.1 background case. When an operator requires its input
// tensor under a different sharding spec on the same mesh, the conversion
// is served by collective communication (all-gather for S→R, slicing for
// R→S, all-to-all for re-sharding along a different axis). Unlike
// cross-mesh resharding, source and destination devices coincide, so data
// already in place moves for free.
//
// The package mirrors the cross-mesh pipeline: decompose into moves, plan
// transfers, simulate on the cluster model, and execute on the data plane.
package intramesh

import (
	"fmt"

	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// Move is one required data movement: a slice that some devices hold and
// other devices need.
type Move struct {
	// Index identifies the move.
	Index int
	// Slice is the region of the global tensor to deliver.
	Slice tensor.Region
	// Holders are devices that hold the slice under the source spec.
	Holders []int
	// Needers are devices that require the slice under the destination
	// spec but do not already hold it.
	Needers []int
}

// Task is an intra-mesh layout conversion.
type Task struct {
	Global tensor.Shape
	DType  tensor.DType
	Mesh   *mesh.Mesh
	Src    *sharding.Placement
	Dst    *sharding.Placement
	// Moves lists the required movements; slices every destination device
	// already holds do not appear.
	Moves []Move
	// LocalElements counts elements already in place (moved for free).
	LocalElements int64
	// MovedElements counts elements that must travel.
	MovedElements int64
}

// NewTask decomposes a layout conversion on one mesh. Source and
// destination specs bind to the same mesh (the defining property of
// intra-mesh resharding).
func NewTask(global tensor.Shape, dt tensor.DType, m *mesh.Mesh, srcSpec, dstSpec sharding.Spec) (*Task, error) {
	src, err := sharding.NewPlacement(m, srcSpec, global)
	if err != nil {
		return nil, fmt.Errorf("intramesh: source placement: %v", err)
	}
	dst, err := sharding.NewPlacement(m, dstSpec, global)
	if err != nil {
		return nil, fmt.Errorf("intramesh: destination placement: %v", err)
	}
	t := &Task{Global: global.Clone(), DType: dt, Mesh: m, Src: src, Dst: dst}

	// Merge shard cuts of both specs per dimension, then cross-multiply
	// into slices (the same Appendix B.2 machinery as cross-mesh).
	rank := global.Rank()
	dims := make([][]tensor.Interval, rank)
	for i := 0; i < rank; i++ {
		dims[i] = tensor.IntervalsFromCuts(tensor.MergeCuts(src.Cuts(i), dst.Cuts(i)))
	}
	for _, s := range tensor.CrossProduct(dims) {
		holders := src.HoldersOf(s)
		holderSet := map[int]bool{}
		for _, h := range holders {
			holderSet[h] = true
		}
		var needers []int
		for _, d := range dst.HoldersOf(s) {
			if holderSet[d] {
				t.LocalElements += s.NumElements()
			} else {
				needers = append(needers, d)
			}
		}
		if len(needers) == 0 {
			continue
		}
		t.MovedElements += s.NumElements() * int64(len(needers))
		t.Moves = append(t.Moves, Move{
			Index:   len(t.Moves),
			Slice:   s,
			Holders: holders,
			Needers: needers,
		})
	}
	return t, nil
}

// CollectiveKind classifies which collective primitive would serve the
// conversion in an SPMD runtime (§2.1's all-gather / all-to-all mapping).
func (t *Task) CollectiveKind() string {
	switch {
	case len(t.Moves) == 0:
		return "none"
	case t.Src.Spec.Equal(t.Dst.Spec):
		return "none"
	case allReplicated(t.Dst.Spec):
		return "all-gather"
	case allReplicated(t.Src.Spec):
		return "slice" // replicated -> sharded needs no communication...
	default:
		return "all-to-all"
	}
}

func allReplicated(s sharding.Spec) bool {
	for _, d := range s.Dims {
		if !d.Replicated() {
			return false
		}
	}
	return true
}

// SimResult reports the simulated conversion.
type SimResult struct {
	Makespan      float64
	EffectiveGbps float64
	NumOps        int
}

// Simulate times the conversion with a nearest-holder transfer plan: each
// needer receives its slice from a holder on its own host when one exists
// (NVLink), otherwise from the least-loaded remote holder's host.
func (t *Task) Simulate() (*SimResult, error) {
	net := netsim.NewClusterNet(t.Mesh.Topo)
	c := t.Mesh.Topo
	load := map[int]int64{} // per-sender committed bytes
	seq := 0
	for _, mv := range t.Moves {
		bytes := mv.Slice.NumElements() * t.DType.Size()
		for _, needer := range mv.Needers {
			sender := -1
			// Prefer a holder on the needer's host.
			for _, h := range mv.Holders {
				if c.HostOf(h) == c.HostOf(needer) {
					sender = h
					break
				}
			}
			if sender < 0 {
				// Least-loaded remote holder.
				var best int64
				for _, h := range mv.Holders {
					if sender < 0 || load[h] < best {
						sender, best = h, load[h]
					}
				}
			}
			load[sender] += bytes
			lbl := netsim.Label{Prefix: "m", Kind: netsim.LabelMove, A: int32(mv.Index), B: int32(needer)}
			if _, err := net.Transfer(lbl, sender, needer, bytes, seq); err != nil {
				return nil, err
			}
			seq++
		}
	}
	makespan, err := net.Run()
	if err != nil {
		return nil, err
	}
	res := &SimResult{Makespan: makespan, NumOps: net.Sim.NumOps()}
	if makespan > 0 {
		res.EffectiveGbps = float64(t.MovedElements*t.DType.Size()) * 8 / makespan / 1e9
	}
	return res, nil
}

// Execute performs the conversion on the data plane: destination buffers
// receive their regions from source buffers (local regions copied from the
// device's own source buffer, moved slices from a holder).
func (t *Task) Execute(srcBufs, dstBufs map[int]*tensor.Buffer) error {
	// Local copies: every destination device first copies the overlap of
	// its own source buffer.
	for _, dr := range t.Dst.DeviceRegions() {
		src, ok := srcBufs[dr.Device]
		if !ok {
			return fmt.Errorf("intramesh: no source buffer for device %d", dr.Device)
		}
		dst, ok := dstBufs[dr.Device]
		if !ok {
			return fmt.Errorf("intramesh: no destination buffer for device %d", dr.Device)
		}
		if overlap, ok := src.Region.Intersect(dr.Region); ok {
			if err := dst.CopyRegion(src, overlap); err != nil {
				return err
			}
		}
	}
	// Moved slices.
	for _, mv := range t.Moves {
		src, ok := srcBufs[mv.Holders[0]]
		if !ok {
			return fmt.Errorf("intramesh: no source buffer for device %d", mv.Holders[0])
		}
		for _, needer := range mv.Needers {
			dst, ok := dstBufs[needer]
			if !ok {
				return fmt.Errorf("intramesh: no destination buffer for device %d", needer)
			}
			if err := dst.CopyRegion(src, mv.Slice); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *Task) String() string {
	return fmt.Sprintf("intramesh %v %s: %s -> %s on %v (%d moves, %s)",
		t.Global, t.DType, t.Src.Spec, t.Dst.Spec, t.Mesh.Devices, len(t.Moves), t.CollectiveKind())
}
