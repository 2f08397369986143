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
// id order, each pipelined chain hop by hop, and the NIC lanes of one unit
// task together, their chunks merged per hop in (ready, id) order. Where it
// cannot — a resource whose previous user was not ready strictly earlier, a
// resource on two hops of one lane group, a NaN — Run falls back to the
// ready heap, O(N log N), the reference the pass agrees with bit for bit.
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
// graphs skip AddOp altogether: ClusterNet.PipelinedChain keeps a whole
// chunks x hops lattice as one record — its gate deps, and per hop two
// resources and three durations — that the pass times directly. Its ops are
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

// lattice is a pipelined chain (ClusterNet.PipelinedChain) kept as one
// record instead of chunks x hops ops; expand writes the ops out when a
// reader or the heap needs them.
type lattice struct {
	prefix string
	bytes  int64
	chunks int32
	nh     int32
	seq    int
	// depOff, depN window the caller's deps in the dependency arena; they
	// gate op (0, 0) alone.
	depOff, depN int32
	// hopOff indexes the lattice's first hop in Sim.latHops.
	hopOff int32
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
	// segs lists every op id in order; lats and latHops are the lattice
	// records not yet expanded.
	segs    []segment
	lats    []lattice
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
	// resource's latest user and its ready time and the group hop that
	// claimed it for the pass, per-lane cursors, and CSR dependents and the
	// ready heap for the DES.
	start     []float64
	finish    []float64
	lastReady []float64
	lastUser  []int32
	hopMark   []int64
	markBase  int64
	lanes     []lane
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
// Duration must be non-negative, deps must refer to already-added ops, and
// resources must be valid handles. The resource and dep slices are copied
// into the Sim's arenas, so callers may reuse their buffers.
func (s *Sim) AddOp(label Label, duration float64, seq int, resources []ResourceID, deps ...OpID) (OpID, error) {
	if s.ran {
		return 0, errAfterRun
	}
	if duration < 0 {
		return 0, fmt.Errorf("netsim: op %q has negative duration %g", label.String(), duration)
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

// addLattice registers the chunks x len(hops) ops of a pipelined chain
// (ClusterNet.PipelinedChain) and returns the id of the first. Op (i, j) —
// chunk i crossing hop j — has id first + i*len(hops) + j, depends on op
// id-1 (the chunk reaching this hop) past the first hop and on op
// id-len(hops) (chunk i-1 leaving this hop) past the first chunk, and
// occupies the hop's two resources. The caller's deps gate op (0, 0) alone:
// every later chunk's hop-0 op waits on its predecessor, which waited on
// them, so listing them again could neither delay it nor make it ready at
// another point of the run.
//
// The lattice is completely regular, so it is kept as one record: the
// caller's deps, and per hop its resources and the three durations a chunk
// can take. No op, resource entry or in-lattice dependency is written until
// expand needs them; the pass times the record directly. The caller has
// validated deps and hops; a negative duration is refused as AddOp refuses
// it, leaving nothing registered.
//
//alpacomm:hotpath
func (s *Sim) addLattice(prefix string, hops []hop, bytes int64, chunks, seq int, deps []OpID) (OpID, error) {
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
	// chunk are q or q+1 bytes.
	q := bytes / int64(chunks)
	hopOff := len(s.latHops)
	negative := false
	for j := range hops {
		h := &hops[j]
		lh := latHop{res: h.res, d0: chunkDur(h, q, true), dq: chunkDur(h, q, false), dq1: chunkDur(h, q+1, false)}
		negative = negative || lh.d0 < 0 || lh.dq < 0 || lh.dq1 < 0
		s.latHops = append(s.latHops, lh)
	}
	if negative {
		if err := negativeChunk(prefix, s.latHops[hopOff:], bytes, chunks); err != nil {
			s.latHops = s.latHops[:hopOff]
			return 0, err
		}
	}
	first := s.nOps
	depOff := len(s.depArena)
	s.depArena = append(s.depArena, deps...)
	s.segs = append(s.segs, segment{first: int32(first), n: int32(nOps), lat: int32(len(s.lats))})
	s.lats = append(s.lats, lattice{
		prefix: prefix, bytes: bytes, chunks: int32(chunks), nh: int32(nh), seq: seq,
		depOff: int32(depOff), depN: int32(len(deps)), hopOff: int32(hopOff),
	})
	s.nOps += nOps
	s.nRes += 2 * nOps
	s.nDeps += int(nDeps)
	return OpID(first), nil
}

// negativeChunk returns AddOp's error for the first op of a lattice, in id
// order, whose duration is negative, or nil if no chunk's is.
func negativeChunk(prefix string, hops []latHop, bytes int64, chunks int) error {
	sizes := chunkSizes{rem: bytes % int64(chunks), k: int64(chunks)}
	for i := int32(0); i < int32(chunks); i++ {
		big := sizes.next()
		for j := range hops {
			if dur := hops[j].dur(i, big); dur < 0 {
				l := Label{Prefix: prefix, Kind: LabelChunkHop, A: i, B: int32(j)}
				return fmt.Errorf("netsim: op %q has negative duration %g", l.String(), dur)
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

// expand writes every lattice record out as the ops addLattice describes,
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

// writeLattices moves the plain ops to their ids and writes each lattice's
// ops into the gaps, last segment first: a plain op only ever moves up, and
// every plain op below a segment sits below its first id.
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
		hops := s.latHops[l.hopOff : l.hopOff+l.nh]
		nh := l.nh
		sizes := chunkSizes{rem: l.bytes % int64(l.chunks), k: int64(l.chunks)}
		id := sg.first
		for i := int32(0); i < l.chunks; i++ {
			big := sizes.next()
			for j := range hops {
				h := &hops[j]
				o := &s.ops[id]
				o.label = Label{Prefix: l.prefix, Kind: LabelChunkHop, A: i, B: int32(j)}
				o.duration, o.seq = h.dur(i, big), l.seq
				o.resOff, o.resN = int32(len(s.resArena)), 2
				s.resArena = append(s.resArena, h.res[0], h.res[1])
				if id == sg.first {
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
	s.segs = s.segs[:0]
	if s.nOps > 0 {
		s.segs = append(s.segs, segment{n: int32(s.nOps), lat: -1})
	}
	s.lats = s.lats[:0]
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
// resource's users in the order the ready heap would pop them, lattices and
// whole groups of NIC lanes included. Where the pass cannot show that order,
// the heap (runHeap) times the graph; the two agree bit for bit.
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
// ops in id order, lattices hop by hop. Consecutive lattices with the same
// gate deps, hop count and seq — the NIC lanes of one unit task — form a
// group, timed together hop by hop: on each hop the lanes' next chunks are
// served in (ready, id) order, the order the heap pops them.
// A single lattice is the one-lane group.
//
// The rule: an op starts at the latest of its ready time and its resources'
// BusyUntil, provided each resource's previous user, in the order the pass
// serves them, pops before it in the heap. The heap pops ops in
// non-decreasing ready time (an op becomes ready no earlier than the finish
// of the op whose pop readied it), so that holds when the previous user was
// ready strictly earlier. Within a group it also holds on a tie, for the
// merge serves the tied op P of lower id first. Suppose the heap popped the
// other, X, first. Every ancestor of X, the shared gates included, had
// popped by then, so P waited on an ancestor in its own lane; the earliest
// such one was in the heap with ready time no later than P's, so no later
// than X's, and a lower id under the same seq — it would have popped before
// X. Each resource therefore sees the same users in the same order under
// the heap, so every start, finish, BusyUntil, BusyTime sum (added in the
// same order) and the makespan come out bit for bit the same.
//
// The pass gives up, reporting false, when a resource's previous user fails
// that rule, when a resource serves two hops of a group (hop-by-hop order
// would then not be its users' order), or when a finish is NaN.
//
//alpacomm:hotpath
func (s *Sim) runInOrder() bool {
	n, nr := s.nOps, len(s.resources)
	s.start = slices.Grow(s.start[:0], n)[:n]
	s.finish = slices.Grow(s.finish[:0], n)[:n]
	if cap(s.lastReady) < nr {
		s.lastReady = make([]float64, nr)
		s.lastUser = make([]int32, nr)
		s.hopMark = make([]int64, nr)
	}
	s.lastReady, s.lastUser, s.hopMark = s.lastReady[:nr], s.lastUser[:nr], s.hopMark[:nr]
	// Ready times are never negative, and no op has id -1.
	for i := range s.lastReady {
		s.lastReady[i], s.lastUser[i] = -1, -1
	}
	clear(s.hopMark)
	s.markBase = 0
	segs := s.segs
	for si := 0; si < len(segs); {
		if segs[si].lat < 0 {
			if !s.passPlain(segs[si]) {
				return false
			}
			si++
			continue
		}
		sj := si + 1
		for sj < len(segs) && segs[sj].lat >= 0 && s.sameGroup(&s.lats[segs[si].lat], &s.lats[segs[sj].lat]) {
			sj++
		}
		if !s.passGroup(segs[si:sj]) {
			return false
		}
		si = sj
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
		if !s.occupy(sg.first+t, ready, start, o.duration, ids) {
			return false
		}
	}
	return true
}

// occupy records op id, ready at ready, as running from start for dur on
// its resources. It reports false on a NaN finish.
func (s *Sim) occupy(id int32, ready, start, dur float64, ids []ResourceID) bool {
	finish := start + dur
	if finish != finish {
		return false
	}
	s.start[id], s.finish[id] = start, finish
	for _, r := range ids {
		rs := &s.resources[r]
		rs.BusyUntil = finish
		rs.BusyTime += dur
		s.lastReady[r], s.lastUser[r] = ready, id
	}
	if finish > s.makespan {
		s.makespan = finish
	}
	return true
}

// sameGroup reports whether lattice b joins a's group: the same hop count,
// seq and gate deps.
func (s *Sim) sameGroup(a, b *lattice) bool {
	return a.nh == b.nh && a.seq == b.seq &&
		slices.Equal(s.depArena[a.depOff:a.depOff+a.depN], s.depArena[b.depOff:b.depOff+b.depN])
}

// lane is one lattice of a group being timed: its record, and its cursor on
// the hop being timed.
type lane struct {
	first, chunks int32
	hops          []latHop
	rem           int64
	// i is the next chunk to serve on the hop, id its op id, ready its
	// ready time and sizes the walk of the chunk sizes.
	i, id int32
	sizes chunkSizes
	ready float64
}

// group is what passGroup knows of the group it times.
type group struct {
	first, nh int32
	gateReady float64
}

// passGroup times a group of lattices hop by hop (see runInOrder).
//
//alpacomm:hotpath
func (s *Sim) passGroup(segs []segment) bool {
	l0 := &s.lats[segs[0].lat]
	g := group{first: segs[0].first, nh: l0.nh}
	gates := s.depArena[l0.depOff : l0.depOff+l0.depN]
	for _, d := range gates {
		if f := s.finish[d]; f > g.gateReady {
			g.gateReady = f
		}
	}
	lanes := s.lanes[:0]
	for _, sg := range segs {
		l := &s.lats[sg.lat]
		lanes = append(lanes, lane{
			first: sg.first, chunks: l.chunks, hops: s.latHops[l.hopOff : l.hopOff+l.nh],
			rem: l.bytes % int64(l.chunks),
		})
	}
	s.lanes = lanes
	base := s.markBase
	s.markBase += int64(g.nh)
	for j := int32(0); j < g.nh; j++ {
		// Claim the hop's resources; one claimed on an earlier hop ends
		// the pass. One already claimed on this hop is shared by lanes,
		// which the merge serves in the heap's order.
		mark := base + int64(j) + 1
		for k := range lanes {
			ln := &lanes[k]
			for _, r := range ln.hops[j].res {
				if m := s.hopMark[r]; m != mark && m > base {
					return false
				}
				s.hopMark[r] = mark
			}
			ln.i, ln.id = 0, ln.first+j
			ln.sizes = chunkSizes{rem: ln.rem, k: int64(ln.chunks)}
			// Chunk 0 waits on its chunk on hop j-1, or on hop 0 on the
			// gates.
			ln.ready = g.gateReady
			if j > 0 {
				ln.ready = 0
				if f := s.finish[ln.id-1]; f > 0 {
					ln.ready = f
				}
			}
		}
		for {
			// The next chunk in (ready, id) order is lane best's (lanes are
			// in id order). It keeps the turn while its chunks come before
			// lane next's next chunk, whose ready time its own cannot move.
			best, next := -1, -1
			for k := range lanes {
				switch ln := &lanes[k]; {
				case ln.i == ln.chunks:
				case best < 0 || ln.ready < lanes[best].ready:
					best, next = k, best
				case next < 0 || ln.ready < lanes[next].ready:
					next = k
				}
			}
			if best < 0 {
				break
			}
			limit, tie := math.Inf(1), false
			if next >= 0 {
				limit, tie = lanes[next].ready, best < next
			}
			if !s.serveRun(&lanes[best], j, &g, limit, tie) {
				return false
			}
		}
	}
	return true
}

// serveRun times the lane's chunks on hop j under runInOrder's rule, from
// its next one, ready at ln.ready, while each is ready before limit, or at
// limit when tie is set. Once the run's first chunk is served, each of the
// hop's resources was last used by the chunk before, so the previous user
// and BusyUntil are kept in locals until the run ends.
//
//alpacomm:hotpath
func (s *Sim) serveRun(ln *lane, j int32, g *group, limit float64, tie bool) bool {
	h := &ln.hops[j]
	a, b := h.res[0], h.res[1]
	ra, rb := &s.resources[a], &s.resources[b]
	lastA, lastB := s.lastReady[a], s.lastReady[b]
	// A tie is served in merge order when the previous user is in the
	// group: it is on this hop, and has the lower id.
	inA, inB := s.lastUser[a] >= g.first, s.lastUser[b] >= g.first
	busy := ra.BusyUntil
	if rb.BusyUntil > busy {
		busy = rb.BusyUntil
	}
	starts, finish := s.start, s.finish
	i, id, ready, sizes := ln.i, ln.id, ln.ready, ln.sizes
	for {
		if !(lastA < ready || lastA == ready && inA) || !(lastB < ready || lastB == ready && inB) {
			return false
		}
		start := ready
		if busy > start {
			start = busy
		}
		dur := h.dur(i, sizes.next())
		fin := start + dur
		if fin != fin {
			return false
		}
		starts[id], finish[id] = start, fin
		ra.BusyTime += dur
		rb.BusyTime += dur
		if fin > s.makespan {
			s.makespan = fin
		}
		lastA, lastB, inA, inB, busy = ready, ready, true, true, fin
		i++
		id += g.nh
		if i < ln.chunks {
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
			if next < limit || next == limit && tie {
				ready = next
				continue
			}
			ln.ready = next
		}
		ra.BusyUntil, rb.BusyUntil = fin, fin
		s.lastReady[a], s.lastUser[a] = ready, id-g.nh
		s.lastReady[b], s.lastUser[b] = ready, id-g.nh
		ln.i, ln.id, ln.sizes = i, id, sizes
		return true
	}
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
