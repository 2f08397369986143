// Package netsim is a deterministic discrete-event simulator for
// communication and compute schedules.
//
// The model: an Op has dependencies (other ops), a set of serial Resources
// it occupies (e.g. a host NIC's send side), a fixed duration, and an issue
// sequence number. Ops become ready when all dependencies finish; ready ops
// are started in (readyTime, seq) order; an op starts at the latest of its
// ready time and the availability of all its resources, and occupies every
// resource exclusively until it finishes.
//
// Per-resource FIFO in issue order models NCCL-style stream queueing, which
// is what makes the paper's §3.2 schedule-ordering algorithms observable in
// simulated time. The simulator is fully deterministic. Run times a graph in
// one O(N) pass without a heap wherever it can show that every resource
// serves its users in the order the ready heap would pop them: plain ops in
// id order, and each lattice record hop by hop. A record's NIC lanes are
// timed lane by lane on a hop where no two of them share a resource, and
// their chunks merged as one server, in (ready, id) order, on a hop where
// all of them share both. Where it cannot — a resource whose previous user
// was not ready strictly earlier, or a hop that only some of a record's
// lanes share — Run falls back to the ready heap, O(N log N), the reference
// the pass agrees with bit for bit.
//
// The core is allocation-free on the hot path: resources are addressed by
// typed integer ResourceID handles into a flat slice, ops live in a flat
// arena (no per-op pointers), per-op resource and dependency lists share
// two append-only arenas, and labels are (kind, prefix, a, b) tuples
// rendered only when Events or an error message needs them. Reset rewinds
// the arenas without freeing, so one Sim can replay many schedules —
// autotune grid cells, serving-cache misses — with near-zero steady-state
// allocation. The arenas belong to the Sim, not to a topology:
// ClusterNet.Rebind carries them from one topology to the next. Regular op
// graphs skip AddOp altogether: ClusterNet.PipelinedLanes keeps the NIC
// lanes of a unit task — ClusterNet.PipelinedChain its one lane — as one
// lattice record: the shared gate deps, and per lane its chunks x hops
// lattice as per hop two resources and three durations, which the pass
// times directly. Its ops are
// written out only when the heap or a per-op reader (Events, OpStart,
// OpFinish, OpLabel) needs them; they have the same ids, labels and times
// either way.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// OpID identifies an op inside one Sim.
type OpID int

// ResourceID is a typed handle to a serially occupied entity: a NIC
// direction, a device link direction, or a compute unit. IDs are dense
// indices into the Sim's resource table, valid until the next Reset.
type ResourceID int32

// Resource is the state of one serially occupied entity.
type Resource struct {
	// Name is the identifier of the resource within its Sim.
	Name string
	// BusyUntil is the simulated time at which the resource next becomes
	// free; valid during and after Run.
	BusyUntil float64
	// BusyTime accumulates total occupied time, for utilization reports.
	BusyTime float64
}

// LabelKind selects how a Label renders. The kinds cover every op-naming
// pattern of the builders above the engine, so no builder formats a string
// per op.
type LabelKind uint8

const (
	// LabelPlain renders Prefix verbatim.
	LabelPlain LabelKind = iota
	// LabelSendRecv renders "<prefix>/sr-><A>".
	LabelSendRecv
	// LabelScatter renders "<prefix>/scatter-><A>".
	LabelScatter
	// LabelChunkHop renders "<prefix>/c<A>/h<B>" (pipelined broadcast).
	LabelChunkHop
	// LabelRound renders "<prefix>/r<A>/d<B>" (ring collectives).
	LabelRound
	// LabelPair renders "<prefix>/<A>-><B>" (all-to-all).
	LabelPair
	// LabelJoin renders "<prefix>/join<A>".
	LabelJoin
	// LabelMove renders "<prefix><A>-><B>" (intra-mesh moves).
	LabelMove
	// LabelStageTask renders "s<A>/<prefix><B>" (pipeline compute tasks).
	LabelStageTask
	// LabelComm renders "c<A>:<prefix>/<B>" (pipeline boundary transfers).
	LabelComm
)

// Label names an op lazily: a shared prefix plus up to two integers,
// rendered by String only when a trace, an Events call or an error message
// needs the text. Storing the tuple instead of a formatted string removes
// the dominant per-op allocation of schedule building.
type Label struct {
	// Prefix is the shared textual part (e.g. the unit-task name).
	Prefix string
	// Kind selects the rendering pattern.
	Kind LabelKind
	// A and B are the pattern's integer slots.
	A, B int32
}

// Plain wraps a fixed string as a Label.
func Plain(s string) Label { return Label{Prefix: s} }

// String renders the label text.
func (l Label) String() string {
	switch l.Kind {
	case LabelPlain:
		return l.Prefix
	case LabelSendRecv:
		return l.Prefix + "/sr->" + itoa(l.A)
	case LabelScatter:
		return l.Prefix + "/scatter->" + itoa(l.A)
	case LabelChunkHop:
		return l.Prefix + "/c" + itoa(l.A) + "/h" + itoa(l.B)
	case LabelRound:
		return l.Prefix + "/r" + itoa(l.A) + "/d" + itoa(l.B)
	case LabelPair:
		return l.Prefix + "/" + itoa(l.A) + "->" + itoa(l.B)
	case LabelJoin:
		return l.Prefix + "/join" + itoa(l.A)
	case LabelMove:
		return l.Prefix + itoa(l.A) + "->" + itoa(l.B)
	case LabelStageTask:
		return "s" + itoa(l.A) + "/" + l.Prefix + itoa(l.B)
	case LabelComm:
		return "c" + itoa(l.A) + ":" + l.Prefix + "/" + itoa(l.B)
	default:
		return l.Prefix
	}
}

func itoa(v int32) string { return strconv.Itoa(int(v)) }

// op is one scheduled task. Resource and dependency lists are (offset,
// count) windows into the Sim's shared arenas, so an op carries no pointers
// and the op table is a single flat allocation.
type op struct {
	label    Label
	duration float64
	seq      int

	resOff, resN int32
	depOff, depN int32

	ndeps     int32
	readyTime float64
	start     float64
	finish    float64
}

// segment is a run of consecutive op ids: either plain ops, stored in order
// in the op table from off on, or one lattice record.
type segment struct {
	first, n int32
	// lat indexes Sim.lats, or is -1 for a run of plain ops.
	lat int32
	off int32
}

// lattice is the pipelined chains of a unit's NIC lanes
// (ClusterNet.PipelinedLanes; ClusterNet.PipelinedChain is one lane) kept as
// one record instead of lanes x chunks x hops ops: the lanes share the
// chain's hop count, the gate deps and the seq, and lane k's ops follow lane
// k-1's. expand writes the ops out when a reader or the heap needs them.
type lattice struct {
	nh  int32
	seq int
	// depOff, depN window the caller's deps in the dependency arena; they
	// gate each lane's op (0, 0) alone.
	depOff, depN int32
	// laneOff, laneN window the record's lanes in Sim.lanes.
	laneOff, laneN int32
}

// lane is one lane of a lattice record — its label prefix, its chunks of q
// or q+1 bytes (rem of them the larger), the id of its op (0, 0) and its
// first hop in Sim.latHops — and the pass's cursor on the hop being timed.
type lane struct {
	prefix string
	q, rem int64
	chunks int32
	first  int32
	hopOff int32
	// i is the next chunk to serve on the hop, id its op id, ready its
	// ready time and sizes the walk of the chunk sizes.
	i, id int32
	sizes chunkSizes
	ready float64
}

// latHop is one hop of a lattice record: the two resources every chunk
// crossing it occupies and the three durations a chunk can take there —
// chunk 0, a later chunk of bytes/chunks bytes, and a later chunk one byte
// larger.
type latHop struct {
	res         [2]ResourceID
	d0, dq, dq1 float64
}

// Sim accumulates ops and resources, then computes the schedule.
type Sim struct {
	resources []Resource
	byName    map[string]ResourceID
	// ops holds the plain ops (AddOp) in id order, and every op, at its id,
	// once expand has written out the lattices.
	ops      []op
	resArena []ResourceID
	depArena []OpID
	// segs lists every op id in order; lats, lanes and latHops are the
	// lattice records not yet expanded.
	segs    []segment
	lats    []lattice
	lanes   []lane
	latHops []latHop
	// nOps, nRes and nDeps count ops, resource entries and dependency
	// entries as if every lattice were expanded.
	nOps, nRes, nDeps int
	ran               bool
	// timed is set when the pass timed the run: the times are in start and
	// finish, not yet in the op table.
	timed    bool
	makespan float64

	// Run scratch, reused across Reset: each op's start and finish, each
	// resource's latest user's ready time and the mark of the last record
	// hop that listed it (mark counts the hops the pass has classified),
	// the queue of lanes on a hop, and CSR dependents and the ready heap
	// for the DES.
	start     []float64
	finish    []float64
	lastReady []float64
	hopMark   []int64
	mark      int64
	queue     []int32
	depHead   []int32
	depList   []int32
	heap      []int32
}

// NewSim returns an empty simulator.
func NewSim() *Sim {
	return &Sim{}
}

// Reset rewinds the simulator to empty while keeping every internal arena's
// capacity, so the next schedule builds without reallocating. All OpIDs and
// ResourceIDs from before the Reset are invalidated.
func (s *Sim) Reset() {
	s.resources = s.resources[:0]
	if s.byName != nil {
		clear(s.byName)
	}
	s.ops = s.ops[:0]
	s.resArena = s.resArena[:0]
	s.depArena = s.depArena[:0]
	s.segs = s.segs[:0]
	s.lats = s.lats[:0]
	s.lanes = s.lanes[:0]
	s.latHops = s.latHops[:0]
	s.nOps, s.nRes, s.nDeps = 0, 0, 0
	s.ran, s.timed = false, false
	s.makespan = 0
}

// NewResource registers a resource under the given name and returns its
// handle. Names are not deduplicated — callers that intern resources keep
// their own tables (see ClusterNet). Like AddOp, registration fails after
// Run: a resource minted into a completed schedule could never be occupied
// and would silently pollute utilization reports.
func (s *Sim) NewResource(name string) (ResourceID, error) {
	if s.ran {
		return 0, fmt.Errorf("netsim: cannot create resource %q after Run", name)
	}
	id := ResourceID(len(s.resources))
	s.resources = append(s.resources, Resource{Name: name})
	return id, nil
}

// Resource returns the resource with the given name, creating it on first
// use. It shares AddOp's error path after Run.
func (s *Sim) Resource(name string) (ResourceID, error) {
	if id, ok := s.byName[name]; ok {
		return id, nil
	}
	id, err := s.NewResource(name)
	if err != nil {
		return 0, err
	}
	if s.byName == nil {
		s.byName = map[string]ResourceID{}
	}
	s.byName[name] = id
	return id, nil
}

// MustResource is Resource that panics on error; for builders that
// register resources before running by construction.
func (s *Sim) MustResource(name string) ResourceID {
	id, err := s.Resource(name)
	if err != nil {
		panic(err)
	}
	return id
}

// NumResources returns the number of registered resources.
func (s *Sim) NumResources() int { return len(s.resources) }

// ResourceName returns the name a resource was registered under.
func (s *Sim) ResourceName(id ResourceID) string { return s.resources[id].Name }

// ResourceState returns a snapshot of a resource's occupancy counters.
func (s *Sim) ResourceState(id ResourceID) Resource { return s.resources[id] }

// AddOp registers an op under a lazily rendered label. seq controls
// per-resource FIFO order among ops that become ready simultaneously; pass
// the op's position in the intended schedule (or 0 to order by insertion).
// Duration must be non-negative (a NaN is refused too), deps must refer to
// already-added ops, and
// resources must be valid handles. The resource and dep slices are copied
// into the Sim's arenas, so callers may reuse their buffers.
func (s *Sim) AddOp(label Label, duration float64, seq int, resources []ResourceID, deps ...OpID) (OpID, error) {
	if s.ran {
		return 0, errAfterRun
	}
	if !(duration >= 0) {
		return 0, durationError(label, duration)
	}
	id := OpID(s.nOps)
	for _, d := range deps {
		if d < 0 || int(d) >= s.nOps {
			return 0, fmt.Errorf("netsim: op %q depends on unknown op %d", label.String(), d)
		}
	}
	for _, r := range resources {
		if r < 0 || int(r) >= len(s.resources) {
			return 0, fmt.Errorf("netsim: op %q occupies unknown resource %d", label.String(), r)
		}
	}
	if err := s.reserve(1, len(resources), len(deps)); err != nil {
		return 0, err
	}
	resOff := int32(len(s.resArena))
	s.resArena = append(s.resArena, resources...)
	depOff := int32(len(s.depArena))
	s.depArena = append(s.depArena, deps...)
	if last := len(s.segs) - 1; last >= 0 && s.segs[last].lat < 0 {
		s.segs[last].n++
	} else {
		s.segs = append(s.segs, segment{first: int32(id), n: 1, lat: -1, off: int32(len(s.ops))})
	}
	s.ops = append(s.ops, op{
		label:    label,
		duration: duration,
		seq:      seq,
		resOff:   resOff,
		resN:     int32(len(resources)),
		depOff:   depOff,
		depN:     int32(len(deps)),
	})
	s.nOps++
	s.nRes += len(resources)
	s.nDeps += len(deps)
	return id, nil
}

// AddOpS is AddOp with a plain string label — the thin shim for callers
// outside the hot builders.
func (s *Sim) AddOpS(label string, duration float64, seq int, resources []ResourceID, deps ...OpID) (OpID, error) {
	return s.AddOp(Plain(label), duration, seq, resources, deps...)
}

// MustAddOp is AddOp that panics on error; for builders whose inputs are
// structurally valid by construction.
func (s *Sim) MustAddOp(label Label, duration float64, seq int, resources []ResourceID, deps ...OpID) OpID {
	id, err := s.AddOp(label, duration, seq, resources, deps...)
	if err != nil {
		panic(err)
	}
	return id
}

var errAfterRun = errors.New("netsim: cannot add ops after Run")

// durationError is AddOp's refusal of an op's negative or NaN duration.
func durationError(label Label, d float64) error {
	if d != d {
		return fmt.Errorf("netsim: op %q has NaN duration", label.String())
	}
	return fmt.Errorf("netsim: op %q has negative duration %g", label.String(), d)
}

// reserve checks that that many more ops, resource-list entries and
// dependency entries fit. Ops address the arenas through int32 windows, and
// expand writes every lattice out into them; reserve fails, instead of
// letting a window wrap, when an arena would then pass math.MaxInt32
// entries.
func (s *Sim) reserve(ops, resources, deps int) error {
	if ops < 0 || resources < 0 || deps < 0 ||
		ops > math.MaxInt32-s.nOps || resources > math.MaxInt32-s.nRes || deps > math.MaxInt32-s.nDeps {
		return fmt.Errorf("netsim: %d ops, %d resource entries and %d dependencies on top of %d/%d/%d overflow the int32 arenas",
			ops, resources, deps, s.nOps, s.nRes, s.nDeps)
	}
	return nil
}

// hop is one edge of a transfer chain, resolved once per chain: the two
// resources every chunk crossing it occupies, and the route's latency and
// bandwidth.
type hop struct {
	res     [2]ResourceID
	lat, bw float64
}

// chunkDur is the duration of a chunk of size bytes on a hop, spelled as
// Transfer (first, the first chunk) and StreamTransfer (a later chunk) spell
// it, so every duration is the same float.
func chunkDur(h *hop, size int64, first bool) float64 {
	dur := h.lat + float64(size)/h.bw
	if !first {
		dur -= h.lat
	}
	return dur
}

// addLane registers the chunks x len(hops) ops of one lane of a lattice
// record and returns the id of the first. With open set the lane opens a new
// record gated by deps under seq (ClusterNet.PipelinedChain, or a unit's
// first NIC lane); otherwise it is the next lane of the last record, over
// the same chain, whose deps and seq it shares (a unit's later NIC lanes,
// ClusterNet.PipelinedLanes). Op (i, j) of a lane — chunk i crossing hop j —
// has id first + i*len(hops) + j, depends on op id-1 (the chunk reaching
// this hop) past the first hop and on op id-len(hops) (chunk i-1 leaving
// this hop) past the first chunk, and occupies the hop's two resources. The
// record's deps gate each lane's op (0, 0) alone: every later chunk's hop-0
// op waits on its predecessor, which waited on them, so listing them again
// could neither delay it nor make it ready at another point of the run.
//
// The lattice is completely regular, so it is kept as the lane's entry in
// the record: per hop its resources and the three durations a chunk can
// take. No op, resource entry or in-lattice dependency is written until
// expand needs them; the pass times the record directly. The caller has
// validated deps and hops; a negative or NaN duration is refused as AddOp
// refuses it, leaving nothing of the lane registered.
//
//alpacomm:hotpath
func (s *Sim) addLane(open bool, prefix string, hops []hop, bytes int64, chunks, seq int, deps []OpID) (OpID, error) {
	nh := len(hops)
	if chunks > math.MaxInt32/nh {
		return 0, fmt.Errorf("netsim: chain %q: %d chunks x %d hops overflow the int32 op arena", prefix, chunks, nh)
	}
	nOps := chunks * nh
	// Op (0, 0) lists the caller's deps, every later hop its upstream op;
	// all chunks but the first add the previous chunk on the same hop.
	nDeps := int64(len(deps)) + int64(chunks)*int64(nh-1) + int64(chunks-1)*int64(nh)
	if nDeps > math.MaxInt32 {
		return 0, fmt.Errorf("netsim: chain %q: %d dependencies overflow the int32 dependency arena", prefix, nDeps)
	}
	if err := s.reserve(nOps, 2*nOps, int(nDeps)); err != nil {
		return 0, err
	}
	// Chunk i is bytes [i*bytes/k, (i+1)*bytes/k): chunk 0 and every later
	// chunk are q or q+1 bytes. A lane whose chunks are the size of the
	// lane before's takes that lane's durations: the route is the same.
	q := bytes / int64(chunks)
	var same []latHop
	if !open {
		if p := &s.lanes[len(s.lanes)-1]; p.q == q {
			same = s.latHops[p.hopOff : p.hopOff+int32(nh)]
		}
	}
	hopOff := len(s.latHops)
	bad := false
	for j := range hops {
		h := &hops[j]
		lh := latHop{res: h.res}
		if same != nil {
			lh.d0, lh.dq, lh.dq1 = same[j].d0, same[j].dq, same[j].dq1
		} else {
			lh.d0, lh.dq, lh.dq1 = chunkDur(h, q, true), chunkDur(h, q, false), chunkDur(h, q+1, false)
			bad = bad || !(lh.d0 >= 0) || !(lh.dq >= 0) || !(lh.dq1 >= 0)
		}
		s.latHops = append(s.latHops, lh)
	}
	if bad {
		if err := badChunk(prefix, s.latHops[hopOff:], bytes, chunks); err != nil {
			s.latHops = s.latHops[:hopOff]
			return 0, err
		}
	}
	first := s.nOps
	if open {
		depOff := len(s.depArena)
		s.depArena = append(s.depArena, deps...)
		s.segs = append(s.segs, segment{first: int32(first), lat: int32(len(s.lats))})
		s.lats = append(s.lats, lattice{
			nh: int32(nh), seq: seq, depOff: int32(depOff), depN: int32(len(deps)), laneOff: int32(len(s.lanes)),
		})
	}
	// The lane is written in place: the pass sets its cursor.
	s.lanes = slices.Grow(s.lanes, 1)[:len(s.lanes)+1]
	ln := &s.lanes[len(s.lanes)-1]
	ln.prefix, ln.q, ln.rem = prefix, q, bytes%int64(chunks)
	ln.chunks, ln.first, ln.hopOff = int32(chunks), int32(first), int32(hopOff)
	s.lats[len(s.lats)-1].laneN++
	s.segs[len(s.segs)-1].n += int32(nOps)
	s.nOps += nOps
	s.nRes += 2 * nOps
	s.nDeps += int(nDeps)
	return OpID(first), nil
}

// badChunk returns AddOp's error for the first op of a lattice, in id
// order, whose duration is negative or NaN, or nil if no chunk's is.
func badChunk(prefix string, hops []latHop, bytes int64, chunks int) error {
	sizes := chunkSizes{rem: bytes % int64(chunks), k: int64(chunks)}
	for i := int32(0); i < int32(chunks); i++ {
		big := sizes.next()
		for j := range hops {
			if dur := hops[j].dur(i, big); !(dur >= 0) {
				return durationError(Label{Prefix: prefix, Kind: LabelChunkHop, A: i, B: int32(j)}, dur)
			}
		}
	}
	return nil
}

// chunkSizes walks a lattice's chunk sizes without dividing: acc is
// (i*rem) mod k before chunk i, and chunk i is one byte larger than
// bytes/k exactly when adding rem carries past k.
type chunkSizes struct{ acc, rem, k int64 }

// next reports whether the next chunk is one byte larger than bytes/k.
func (c *chunkSizes) next() bool {
	c.acc += c.rem
	if c.acc >= c.k {
		c.acc -= c.k
		return true
	}
	return false
}

// dur is the duration of chunk i on the hop, given whether it is the larger
// size.
func (h *latHop) dur(i int32, big bool) float64 {
	switch {
	case i == 0:
		return h.d0
	case big:
		return h.dq1
	default:
		return h.dq
	}
}

// expand writes every lattice record out as the ops addLane describes,
// each at its id, so that the op table holds every op, and copies the
// pass's times into it. The heap and the per-op readers call it; once done
// it is a no-op until more lattices are added.
func (s *Sim) expand() {
	if len(s.lats) > 0 {
		s.writeLattices()
	}
	if s.timed {
		for i := range s.ops {
			s.ops[i].start, s.ops[i].finish = s.start[i], s.finish[i]
		}
		s.timed = false
	}
}

// writeLattices moves the plain ops to their ids and writes each lattice
// record's ops into the gaps, lane by lane, last segment first: a plain op
// only ever moves up, and every plain op below a segment sits below its
// first id.
func (s *Sim) writeLattices() {
	s.ops = slices.Grow(s.ops, s.nOps-len(s.ops))[:s.nOps]
	s.resArena = slices.Grow(s.resArena, s.nRes-len(s.resArena))
	s.depArena = slices.Grow(s.depArena, s.nDeps-len(s.depArena))
	for si := len(s.segs) - 1; si >= 0; si-- {
		sg := s.segs[si]
		if sg.lat < 0 {
			copy(s.ops[sg.first:sg.first+sg.n], s.ops[sg.off:sg.off+sg.n])
			continue
		}
		l := &s.lats[sg.lat]
		nh := l.nh
		for k := l.laneOff; k < l.laneOff+l.laneN; k++ {
			ln := &s.lanes[k]
			hops := s.latHops[ln.hopOff : ln.hopOff+nh]
			sizes := chunkSizes{rem: ln.rem, k: int64(ln.chunks)}
			id := ln.first
			for i := int32(0); i < ln.chunks; i++ {
				big := sizes.next()
				for j := range hops {
					h := &hops[j]
					o := &s.ops[id]
					o.label = Label{Prefix: ln.prefix, Kind: LabelChunkHop, A: i, B: int32(j)}
					o.duration, o.seq = h.dur(i, big), l.seq
					o.resOff, o.resN = int32(len(s.resArena)), 2
					s.resArena = append(s.resArena, h.res[0], h.res[1])
					if id == ln.first {
						o.depOff, o.depN = l.depOff, l.depN
					} else {
						o.depOff = int32(len(s.depArena))
						if j > 0 {
							s.depArena = append(s.depArena, OpID(id-1))
						}
						if i > 0 {
							s.depArena = append(s.depArena, OpID(id-nh))
						}
						o.depN = int32(len(s.depArena)) - o.depOff
					}
					o.ndeps, o.readyTime, o.start, o.finish = 0, 0, 0, 0
					id++
				}
			}
		}
	}
	s.segs = s.segs[:0]
	if s.nOps > 0 {
		s.segs = append(s.segs, segment{n: int32(s.nOps), lat: -1})
	}
	s.lats = s.lats[:0]
	s.lanes = s.lanes[:0]
	s.latHops = s.latHops[:0]
}

// resIDs returns an op's resource handles.
func (s *Sim) resIDs(o *op) []ResourceID { return s.resArena[o.resOff : o.resOff+o.resN] }

// depIDs returns an op's dependency list.
func (s *Sim) depIDs(o *op) []OpID { return s.depArena[o.depOff : o.depOff+o.depN] }

// heapLess orders ready ops by (readyTime, seq, id).
func (s *Sim) heapLess(a, b int32) bool {
	oa, ob := &s.ops[a], &s.ops[b]
	if oa.readyTime != ob.readyTime {
		return oa.readyTime < ob.readyTime
	}
	if oa.seq != ob.seq {
		return oa.seq < ob.seq
	}
	return a < b
}

func (s *Sim) heapPush(x int32) {
	s.heap = append(s.heap, x)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Sim) heapPop() int32 {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.heapLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && s.heapLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Run executes the schedule and returns the makespan (finish time of the
// last op). It fails if the dependency graph has a cycle. Run may be called
// once per Reset; results are then available through OpStart/OpFinish/
// Events.
//
// Most graphs are timed in one pass (runInOrder) that serves each
// resource's users in the order the ready heap would pop them: plain ops in
// id order, and each lattice record hop by hop, a hop its lanes do not
// share lane by lane and a hop they all share as one server. Where the pass
// cannot show that order — a resource whose previous user was not ready
// strictly earlier, or a hop only some lanes share, as a lane past the NIC
// count wrapping onto NIC 0 makes — the heap (runHeap) times the graph; the
// two agree bit for bit.
func (s *Sim) Run() (float64, error) {
	if s.ran {
		return s.makespan, nil
	}
	if !s.runInOrder() {
		if err := s.runHeap(); err != nil {
			return 0, err
		}
	}
	s.ran = true
	return s.makespan, nil
}

// runInOrder times the ops without the heap, in a topological order: plain
// ops in id order, lattice records hop by hop (passLattice), each hop by one
// or more servers (serve) that take the chunks on their resources in
// (ready, id) order.
//
// The rule: an op starts at the latest of its ready time and its resources'
// BusyUntil, provided each resource's previous user, in the order the pass
// serves them, pops before it in the heap. The heap pops ops in
// non-decreasing ready time (an op becomes ready no earlier than the finish
// of the op whose pop readied it), so that holds when the previous user was
// ready strictly earlier, which the pass checks for a plain op and for the
// first chunk a server takes; it then holds for every user before that one
// too, for each resource's users are served in non-decreasing ready time. A
// server's later chunks are ready no earlier than the one before, and on a
// tie it takes the op P of lower id first. Suppose the heap popped another
// tied op X before P. Every ancestor of X, the shared gates included, had
// popped by then, so P waited on an ancestor in its own lane; the earliest
// such one was in the heap with ready time no later than P's, so no later
// than X's, and a lower id under the same seq — it would have popped before
// X. Each resource therefore sees the same users in the same order under
// the heap, so every start, finish, BusyUntil, BusyTime sum (added in the
// same order) and the makespan come out bit for bit the same.
//
// The pass gives up, reporting false, when a resource's previous user fails
// that rule, or when some but not all of a record's lanes share a hop.
//
//alpacomm:hotpath
func (s *Sim) runInOrder() bool {
	n, nr := s.nOps, len(s.resources)
	s.start = slices.Grow(s.start[:0], n)[:n]
	s.finish = slices.Grow(s.finish[:0], n)[:n]
	if cap(s.lastReady) < nr {
		s.lastReady = make([]float64, nr)
		s.hopMark = make([]int64, nr)
	}
	s.lastReady, s.hopMark = s.lastReady[:nr], s.hopMark[:nr]
	// Ready times are never negative.
	for i := range s.lastReady {
		s.lastReady[i] = -1
	}
	for _, sg := range s.segs {
		ok := false
		if sg.lat < 0 {
			ok = s.passPlain(sg)
		} else {
			ok = s.passLattice(sg)
		}
		if !ok {
			return false
		}
	}
	s.timed = true
	return true
}

// passPlain times a run of plain ops in id order. Each resource's previous
// user must have been ready strictly earlier.
//
//alpacomm:hotpath
func (s *Sim) passPlain(sg segment) bool {
	res, lastReady, finish := s.resources, s.lastReady, s.finish
	for t := int32(0); t < sg.n; t++ {
		o := &s.ops[sg.off+t]
		ready := 0.0
		for _, d := range s.depIDs(o) {
			if f := finish[d]; f > ready {
				ready = f
			}
		}
		ids := s.resIDs(o)
		start := ready
		for _, r := range ids {
			if !(lastReady[r] < ready) {
				return false
			}
			if b := res[r].BusyUntil; b > start {
				start = b
			}
		}
		s.start[sg.first+t], finish[sg.first+t] = start, s.occupy(ready, start, o.duration, ids)
	}
	return true
}

// occupy records an op ready at ready as running from start for dur on its
// resources, and returns its finish.
func (s *Sim) occupy(ready, start, dur float64, ids []ResourceID) float64 {
	finish := start + dur
	for _, r := range ids {
		rs := &s.resources[r]
		rs.BusyUntil = finish
		rs.BusyTime += dur
		s.lastReady[r] = ready
	}
	if finish > s.makespan {
		s.makespan = finish
	}
	return finish
}

// passLattice times a lattice record hop by hop (see runInOrder), each hop
// by how its lanes share the hop's resources: a hop no two lanes share (a
// one-lane record's every hop, and every cross-host hop of a unit's NIC
// lanes) lane by lane, each lane's chunks as one run; a hop every lane
// shares both resources of (a device hop of NIC lanes) as one server. Any
// other hop ends the pass.
//
//alpacomm:hotpath
func (s *Sim) passLattice(sg segment) bool {
	l := &s.lats[sg.lat]
	gateReady := 0.0
	for _, d := range s.depArena[l.depOff : l.depOff+l.depN] {
		if f := s.finish[d]; f > gateReady {
			gateReady = f
		}
	}
	lanes := s.lanes[l.laneOff : l.laneOff+l.laneN]
	// A hop's queue starts with every lane and takes a lane back at most
	// once per chunk it serves but the lane's last.
	chunks := 0
	for k := range lanes {
		chunks += int(lanes[k].chunks)
	}
	s.queue = slices.Grow(s.queue[:0], chunks)
	for j := int32(0); j < l.nh; j++ {
		s.mark++
		res0 := s.latHops[lanes[0].hopOff+j].res
		shared, disjoint := true, true
		for k := range lanes {
			ln := &lanes[k]
			res := s.latHops[ln.hopOff+j].res
			shared = shared && res == res0
			for _, r := range res {
				disjoint = disjoint && s.hopMark[r] != s.mark
				s.hopMark[r] = s.mark
			}
			ln.i, ln.id = 0, ln.first+j
			ln.sizes = chunkSizes{rem: ln.rem, k: int64(ln.chunks)}
			// Chunk 0 waits on its chunk on hop j-1, or on hop 0 on the
			// gates.
			ln.ready = gateReady
			if j > 0 {
				ln.ready = 0
				if f := s.finish[ln.id-1]; f > 0 {
					ln.ready = f
				}
			}
		}
		switch {
		case disjoint:
			for k := range lanes {
				if !s.serve(lanes, append(s.queue[:0], int32(k)), j, l.nh) {
					return false
				}
			}
		case shared:
			queue := s.queue[:0]
			for k := range lanes {
				queue = enqueue(lanes, queue, 0, int32(k))
			}
			if !s.serve(lanes, queue, j, l.nh) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// enqueue appends lane k to the queue of lanes from index from on, kept in
// (ready, lane) order, and moves it forward past every lane it comes before.
// A lane that has just been served usually stays at the back.
func enqueue(lanes []lane, queue []int32, from int, k int32) []int32 {
	queue = append(queue, k)
	r := lanes[k].ready
	for p := len(queue) - 1; p > from; p-- {
		m := queue[p-1]
		if rm := lanes[m].ready; rm < r || rm == r && m < k {
			break
		}
		queue[p-1], queue[p] = k, m
	}
	return queue
}

// serve times hop j of the queued lanes, which all occupy the same two
// resources there, as one server: it takes the lanes' next chunks in
// (ready, lane) order, the order the heap pops them. The lane at the front
// keeps the turn, its cursor in locals, while its next chunk comes before
// the next queued lane's; otherwise it goes back into the queue. Every
// chunk is ready no earlier than the one served before it, so only the
// first needs each resource's previous user to have been ready strictly
// earlier. A queue of one lane times its chunks as one run.
//
//alpacomm:hotpath
func (s *Sim) serve(lanes []lane, queue []int32, j, nh int32) bool {
	h := &s.latHops[lanes[queue[0]].hopOff+j]
	a, b := h.res[0], h.res[1]
	ra, rb := &s.resources[a], &s.resources[b]
	ready := lanes[queue[0]].ready
	if !(s.lastReady[a] < ready) || !(s.lastReady[b] < ready) {
		return false
	}
	busy := ra.BusyUntil
	if rb.BusyUntil > busy {
		busy = rb.BusyUntil
	}
	starts, finish, span := s.start, s.finish, s.makespan
	for q := 0; q < len(queue); q++ {
		k := queue[q]
		ln := &lanes[k]
		h := &s.latHops[ln.hopOff+j]
		i, id, sizes := ln.i, ln.id, ln.sizes
		ready = ln.ready
		for {
			start := ready
			if busy > start {
				start = busy
			}
			dur := h.dur(i, sizes.next())
			fin := start + dur
			starts[id], finish[id] = start, fin
			ra.BusyTime += dur
			rb.BusyTime += dur
			if fin > span {
				span = fin
			}
			busy = fin
			i++
			id += nh
			if i == ln.chunks {
				break
			}
			// The next chunk waits on its own chunk on hop j-1 and on
			// this one.
			next := 0.0
			if j > 0 {
				if f := finish[id-1]; f > next {
					next = f
				}
			}
			if fin > next {
				next = fin
			}
			if q+1 < len(queue) {
				if m := queue[q+1]; !(next < lanes[m].ready || next == lanes[m].ready && k < m) {
					ln.i, ln.id, ln.ready, ln.sizes = i, id, next, sizes
					queue = enqueue(lanes, queue, q+1, k)
					break
				}
			}
			ready = next
		}
	}
	ra.BusyUntil, rb.BusyUntil = busy, busy
	s.lastReady[a], s.lastReady[b] = ready, ready
	s.makespan = span
	return true
}

// runHeap is the discrete-event simulation: ops become ready as their last
// dependency finishes and start in (readyTime, seq, id) order, each at the
// latest of its ready time and its resources' BusyUntil. It expands every
// lattice first, and starts from idle resources, whatever an abandoned pass
// left in them.
func (s *Sim) runHeap() error {
	s.expand()
	for i := range s.resources {
		s.resources[i].BusyUntil, s.resources[i].BusyTime = 0, 0
	}
	s.makespan = 0
	n := len(s.ops)
	// Build the dependents lists in CSR form over reusable scratch: one
	// counting pass, a prefix sum, one fill pass.
	if cap(s.depHead) < n+1 {
		s.depHead = make([]int32, n+1)
	}
	head := s.depHead[:n+1]
	for i := range head {
		head[i] = 0
	}
	for i := range s.ops {
		o := &s.ops[i]
		o.ndeps = o.depN
		o.readyTime = 0
		for _, d := range s.depIDs(o) {
			head[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		head[i+1] += head[i]
	}
	total := int(head[n])
	if cap(s.depList) < total {
		s.depList = make([]int32, total)
	}
	depList := s.depList[:total]
	// Fill pass: head[d] is used as a cursor, then restored by the shift at
	// the end (head[d] ends up holding the start of d's window again because
	// each window was advanced exactly by its length).
	for i := n - 1; i >= 0; i-- {
		o := &s.ops[i]
		deps := s.depIDs(o)
		for j := len(deps) - 1; j >= 0; j-- {
			d := deps[j]
			head[d+1]--
			depList[head[d+1]] = int32(i)
		}
	}
	// After the reverse fill, head[d+1] is the start of d's window; shift
	// expectations accordingly: dependents of op d are
	// depList[head[d+1]:end] where end is the next op's start.
	s.heap = s.heap[:0]
	for i := range s.ops {
		if s.ops[i].ndeps == 0 {
			s.heapPush(int32(i))
		}
	}
	scheduled := 0
	for len(s.heap) > 0 {
		oi := s.heapPop()
		o := &s.ops[oi]
		start := o.readyTime
		for _, r := range s.resIDs(o) {
			if s.resources[r].BusyUntil > start {
				start = s.resources[r].BusyUntil
			}
		}
		o.start = start
		o.finish = start + o.duration
		for _, r := range s.resIDs(o) {
			s.resources[r].BusyUntil = o.finish
			s.resources[r].BusyTime += o.duration
		}
		if o.finish > s.makespan {
			s.makespan = o.finish
		}
		scheduled++
		lo, hi := head[oi+1], int32(total)
		if int(oi)+1 < n {
			hi = head[oi+2]
		}
		for _, di := range depList[lo:hi] {
			d := &s.ops[di]
			if o.finish > d.readyTime {
				d.readyTime = o.finish
			}
			d.ndeps--
			if d.ndeps == 0 {
				s.heapPush(di)
			}
		}
	}
	if scheduled != len(s.ops) {
		return fmt.Errorf("netsim: dependency cycle — scheduled %d of %d ops", scheduled, len(s.ops))
	}
	return nil
}

// Makespan returns the finish time of the completed run.
func (s *Sim) Makespan() float64 { return s.makespan }

// NumOps returns the number of registered ops.
func (s *Sim) NumOps() int { return s.nOps }

// OpStart returns the scheduled start time of an op after Run.
func (s *Sim) OpStart(id OpID) float64 {
	s.expand()
	return s.ops[id].start
}

// OpFinish returns the scheduled finish time of an op after Run.
func (s *Sim) OpFinish(id OpID) float64 {
	s.expand()
	return s.ops[id].finish
}

// OpLabel renders the label of an op.
func (s *Sim) OpLabel(id OpID) string {
	s.expand()
	return s.ops[id].label.String()
}

// Event is one scheduled op, for traces and timeline rendering.
type Event struct {
	Label     string
	Start     float64
	Finish    float64
	Resources []string
}

// Events returns all scheduled ops sorted by (start, finish, label). This
// is where labels and resource names are rendered — schedules that are
// only timed never pay for the text.
func (s *Sim) Events() []Event {
	s.expand()
	out := make([]Event, 0, len(s.ops))
	for i := range s.ops {
		o := &s.ops[i]
		ids := s.resIDs(o)
		names := make([]string, len(ids))
		for j, r := range ids {
			names[j] = s.resources[r].Name
		}
		out = append(out, Event{Label: o.label.String(), Start: o.start, Finish: o.finish, Resources: names})
	}
	// SliceStable keeps insertion order among events that tie on the full
	// (start, finish, label) key, matching the stable insertion sort this
	// replaced.
	sort.SliceStable(out, func(i, j int) bool { return eventLess(out[i], out[j]) })
	return out
}

func eventLess(a, b Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Finish != b.Finish {
		return a.Finish < b.Finish
	}
	return a.Label < b.Label
}

// Utilization returns BusyTime/makespan per resource name. Resources that
// were never used report 0.
func (s *Sim) Utilization() map[string]float64 {
	out := make(map[string]float64, len(s.resources))
	for i := range s.resources {
		r := &s.resources[i]
		if s.makespan > 0 {
			out[r.Name] = r.BusyTime / s.makespan
		} else {
			out[r.Name] = 0
		}
	}
	return out
}
