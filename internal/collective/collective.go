// Package collective builds communication-primitive op DAGs on top of the
// netsim engine: point-to-point sends, ring all-gather (NCCL-style), the
// paper's pipelined broadcast chain (§3.1), ring all-reduce, and all-to-all.
//
// Each builder registers transfer ops with a ClusterNet and returns, per
// participating device, the op that completes that device's part — so
// primitives compose into larger schedules through dependencies. The
// broadcast chain, the one primitive on the serving path, is regular enough
// to say that with two integers (BroadcastChain, ChainDone); the others
// return a Result. Builders name ops with lazy netsim.Label tuples over one
// shared prefix, so no per-op string is formatted unless a trace is
// rendered.
package collective

import (
	"fmt"

	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// Result reports the completion ops of a primitive.
type Result struct {
	// DoneAt maps each participating device to the op after which the
	// device holds its final data. Devices that needed no transfer are
	// absent.
	DoneAt map[int]netsim.OpID
}

// AllDone returns every completion op, for use as a dependency set.
func (r *Result) AllDone() []netsim.OpID {
	out := make([]netsim.OpID, 0, len(r.DoneAt))
	// Deterministic order: iterate devices ascending.
	max := -1
	for d := range r.DoneAt {
		if d > max {
			max = d
		}
	}
	for d := 0; d <= max; d++ {
		if id, ok := r.DoneAt[d]; ok {
			out = append(out, id)
		}
	}
	return out
}

// chunkSizes splits bytes into k near-even parts (floor boundaries), the
// same rule as tensor.PartitionBoundaries but over int64 byte counts.
func chunkSizes(bytes int64, k int) []int64 {
	out := make([]int64, k)
	prev := int64(0)
	for j := 1; j <= k; j++ {
		b := int64(j) * bytes / int64(k)
		out[j-1] = b - prev
		prev = b
	}
	return out
}

// DefaultChunks picks the broadcast pipelining depth for a message size:
// roughly one chunk per 4 MiB, clamped to [1, 128]. The paper uses K ≈ 100
// for its 1 GB messages; the latency term makes much larger K
// counterproductive.
func DefaultChunks(bytes int64) int {
	const target = 4 << 20
	k := int(bytes / target)
	if k < 1 {
		k = 1
	}
	if k > 128 {
		k = 128
	}
	return k
}

func validateDevices(c mesh.Topology, devices []int) error {
	seen := map[int]bool{}
	for _, d := range devices {
		if !c.ValidDevice(d) {
			return fmt.Errorf("collective: invalid device %d", d)
		}
		if seen[d] {
			return fmt.Errorf("collective: duplicate device %d", d)
		}
		seen[d] = true
	}
	return nil
}

// P2P registers one point-to-point send and returns its result.
func P2P(net *netsim.ClusterNet, label string, src, dst int, bytes int64, seq int, deps ...netsim.OpID) (*Result, error) {
	id, err := net.Transfer(netsim.Plain(label), src, dst, bytes, seq, deps...)
	if err != nil {
		return nil, err
	}
	return &Result{DoneAt: map[int]netsim.OpID{dst: id}}, nil
}

// BroadcastChain registers the paper's pipelined broadcast (§3.1, Fig. 3d):
// the message travels the chain hop by hop in `chunks` pipelined pieces, so
// every device both receives and forwards at full bandwidth. chain[0] is
// the sender; deps gate the sender's chunks.
//
// With hop time t and K chunks the chain completes in ≈ t + (hops·t)/K,
// which approaches the single-copy lower bound t for large K.
//
// The broadcast is a regular K x hops lattice, registered in one piece by
// netsim.ClusterNet.PipelinedChain, which keeps it as one record, so it is
// described by two numbers rather than a Result: the id of its first op and
// the chunk count k actually used (1 for a message of fewer bytes than
// chunks). Chunk i crosses hop j in op first + i·hops + j; see ChainDone for
// the completion ops. A unit task's NIC lanes are registered together by
// netsim.ClusterNet.PipelinedLanes instead, which keeps them as one record.
func BroadcastChain(net *netsim.ClusterNet, label string, chain []int, bytes int64, chunks, seq int, deps ...netsim.OpID) (first netsim.OpID, k int, err error) {
	if chunks < 1 {
		return 0, 0, fmt.Errorf("collective: chunk count %d < 1", chunks)
	}
	if bytes < int64(chunks) {
		chunks = 1 // tiny message: no point pipelining
	}
	first, err = net.PipelinedChain(label, chain, bytes, chunks, seq, deps)
	return first, chunks, err
}

// ChainDone returns the op after which chain[j+1] holds the whole message of
// a BroadcastChain over hops = len(chain)-1 hops: the last chunk's arrival.
func ChainDone(first netsim.OpID, k, hops, j int) netsim.OpID {
	return first + netsim.OpID((k-1)*hops+j)
}

// RingAllGather registers an NCCL-style ring all-gather over the devices:
// each device starts holding 1/n of totalBytes; after n-1 rounds every
// device holds everything. startDeps gates each device's initial chunk
// (nil means available at t=0).
func RingAllGather(net *netsim.ClusterNet, label string, devices []int, totalBytes int64, seq int, startDeps map[int][]netsim.OpID) (*Result, error) {
	n := len(devices)
	if n < 2 {
		return nil, fmt.Errorf("collective: ring all-gather needs >= 2 devices, got %d", n)
	}
	if err := validateDevices(net.Topo, devices); err != nil {
		return nil, err
	}
	return ringRounds(net, label, devices, totalBytes, seq, startDeps, n-1)
}

// RingAllReduce registers a ring all-reduce (reduce-scatter followed by
// all-gather, 2(n-1) rounds) over the devices. Only the communication is
// modelled; reduction compute is treated as free.
func RingAllReduce(net *netsim.ClusterNet, label string, devices []int, totalBytes int64, seq int, startDeps map[int][]netsim.OpID) (*Result, error) {
	n := len(devices)
	if n < 2 {
		return nil, fmt.Errorf("collective: ring all-reduce needs >= 2 devices, got %d", n)
	}
	if err := validateDevices(net.Topo, devices); err != nil {
		return nil, err
	}
	return ringRounds(net, label, devices, totalBytes, seq, startDeps, 2*(n-1))
}

// ringRounds registers `rounds` rounds of neighbour sends over the ring:
// in round r, devices[i] sends chunk (i-r mod n) to its successor, gated on
// having received that chunk in the previous round.
func ringRounds(net *netsim.ClusterNet, label string, devices []int, totalBytes int64, seq int, startDeps map[int][]netsim.OpID, rounds int) (*Result, error) {
	n := len(devices)
	chunks := chunkSizes(totalBytes, n)
	res := &Result{DoneAt: map[int]netsim.OpID{}}
	ops := make([][]netsim.OpID, rounds)
	var depBuf []netsim.OpID
	for r := 0; r < rounds; r++ {
		ops[r] = make([]netsim.OpID, n)
		for i := 0; i < n; i++ {
			src, dst := devices[i], devices[(i+1)%n]
			chunk := ((i-r)%n + n) % n
			d := depBuf[:0]
			if r == 0 {
				d = append(d, startDeps[src]...)
			} else {
				d = append(d, ops[r-1][(i-1+n)%n]) // received this chunk last round
			}
			depBuf = d
			lbl := netsim.Label{Prefix: label, Kind: netsim.LabelRound, A: int32(r), B: int32(i)}
			id, err := net.Transfer(lbl, src, dst, chunks[chunk], seq, d...)
			if err != nil {
				return nil, err
			}
			ops[r][i] = id
		}
	}
	for i := 0; i < n; i++ {
		res.DoneAt[devices[i]] = ops[rounds-1][(i-1+n)%n]
	}
	return res, nil
}

// AllToAll registers an all-to-all: every device sends a distinct
// bytesPerPair message to every other device. A zero-duration join op per
// receiver marks completion.
func AllToAll(net *netsim.ClusterNet, label string, devices []int, bytesPerPair int64, seq int, startDeps map[int][]netsim.OpID) (*Result, error) {
	n := len(devices)
	if n < 2 {
		return nil, fmt.Errorf("collective: all-to-all needs >= 2 devices, got %d", n)
	}
	if err := validateDevices(net.Topo, devices); err != nil {
		return nil, err
	}
	res := &Result{DoneAt: map[int]netsim.OpID{}}
	incoming := make(map[int][]netsim.OpID, n)
	// Issue in rounds: in round o every device sends to the peer o
	// positions ahead, so each round uses disjoint send/recv resources
	// (standard all-to-all rotation).
	for o := 1; o < n; o++ {
		for i := 0; i < n; i++ {
			dst := devices[(i+o)%n]
			lbl := netsim.Label{Prefix: label, Kind: netsim.LabelPair, A: int32(devices[i]), B: int32(dst)}
			id, err := net.Transfer(lbl, devices[i], dst, bytesPerPair, seq+o, startDeps[devices[i]]...)
			if err != nil {
				return nil, err
			}
			incoming[dst] = append(incoming[dst], id)
		}
	}
	for _, dev := range devices {
		lbl := netsim.Label{Prefix: label, Kind: netsim.LabelJoin, A: int32(dev)}
		join, err := net.Sim.AddOp(lbl, 0, seq, nil, incoming[dev]...)
		if err != nil {
			return nil, err
		}
		res.DoneAt[dev] = join
	}
	return res, nil
}
