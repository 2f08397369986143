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
// simulated time. The simulator is fully deterministic. A graph in which no
// op ever waits for a resource is timed in one O(N) pass in id order (ids
// are a topological order, and there every op starts when it is ready); at
// the first op that would wait, or whose resource's previous user was not
// ready strictly earlier, Run falls back to the ready heap, O(N log N), the
// reference the in-order pass agrees with bit for bit.
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
// graphs skip AddOp altogether: ClusterNet.PipelinedChain reserves a whole
// chunks x hops lattice in the arenas and fills it in place.
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

// Sim accumulates ops and resources, then computes the schedule.
type Sim struct {
	resources []Resource
	byName    map[string]ResourceID
	ops       []op
	resArena  []ResourceID
	depArena  []OpID
	ran       bool
	makespan  float64

	// Run scratch, reused across Reset: each resource's latest ready time
	// for the in-order pass, CSR dependents and the ready heap for the DES.
	lastReady []float64
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
	s.ran = false
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
	id := OpID(len(s.ops))
	for _, d := range deps {
		if d < 0 || int(d) >= len(s.ops) {
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
	s.ops = append(s.ops, op{
		label:    label,
		duration: duration,
		seq:      seq,
		resOff:   resOff,
		resN:     int32(len(resources)),
		depOff:   depOff,
		depN:     int32(len(deps)),
	})
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

// reserve makes room for that many more ops, resource-list entries and
// dependency entries, so that registering them reallocates nothing. Ops
// address the arenas through int32 windows; reserve fails, instead of letting
// a window wrap, when an arena would pass math.MaxInt32 entries.
func (s *Sim) reserve(ops, resources, deps int) error {
	if ops < 0 || resources < 0 || deps < 0 ||
		ops > math.MaxInt32-len(s.ops) || resources > math.MaxInt32-len(s.resArena) || deps > math.MaxInt32-len(s.depArena) {
		return fmt.Errorf("netsim: %d ops, %d resource entries and %d dependencies on top of %d/%d/%d overflow the int32 arenas",
			ops, resources, deps, len(s.ops), len(s.resArena), len(s.depArena))
	}
	s.ops = slices.Grow(s.ops, ops)
	s.resArena = slices.Grow(s.resArena, resources)
	s.depArena = slices.Grow(s.depArena, deps)
	return nil
}

// hop is one edge of a transfer chain, resolved once per chain: the two
// resources every chunk crossing it occupies, and the route's latency and
// bandwidth.
type hop struct {
	res     [2]ResourceID
	lat, bw float64
}

// addLattice registers the chunks x len(hops) ops of a pipelined chain
// (ClusterNet.PipelinedChain) and returns the id of the first. The lattice is
// completely regular, so it is reserved in the arenas once and filled in
// place: op (i, j) — chunk i crossing hop j — has id first + i*len(hops) + j,
// depends on op id-1 (the chunk reaching this hop) past the first hop and on
// op id-len(hops) (chunk i-1 leaving this hop) past the first chunk, and
// occupies the hop's two resources. The caller's deps gate op (0, 0) alone:
// every later chunk's hop-0 op waits on its predecessor, which waited on
// them, so listing them again could neither delay it nor make it ready at
// another point of the run. The caller has validated deps and hops; a
// negative duration is refused as AddOp refuses it, leaving nothing
// registered.
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
	first, resOff, depOff := len(s.ops), len(s.resArena), len(s.depArena)
	s.ops = s.ops[:first+nOps]
	s.resArena = s.resArena[:resOff+2*nOps]
	s.depArena = s.depArena[:depOff+int(nDeps)]
	ops, res, da := s.ops, s.resArena, s.depArena

	id, r, d := first, resOff, depOff
	negative := -1
	k, sent := int64(chunks), int64(0)
	for i := 0; i < chunks; i++ {
		// Near-even split on floor boundaries: chunk i is bytes
		// [i*bytes/k, (i+1)*bytes/k).
		end := int64(i+1) * bytes / k
		size := float64(end - sent)
		sent = end
		for j := range hops {
			h := &hops[j]
			// The first chunk pays the route's latency; later chunks stream
			// on the established route. Spelled as Transfer and
			// StreamTransfer spell it, so every duration is the same float.
			dur := h.lat + size/h.bw
			if i > 0 {
				dur -= h.lat
			}
			if dur < 0 && negative < 0 {
				negative = id
			}
			dep := d
			if id == first {
				d += copy(da[d:], deps)
			} else if j > 0 {
				da[d] = OpID(id - 1)
				d++
			}
			if i > 0 {
				da[d] = OpID(id - nh)
				d++
			}
			res[r], res[r+1] = h.res[0], h.res[1]
			// Field by field: the slot is recycled, and a composite literal
			// would be built aside and copied in.
			o := &ops[id]
			o.label = Label{Prefix: prefix, Kind: LabelChunkHop, A: int32(i), B: int32(j)}
			o.duration, o.seq = dur, seq
			o.resOff, o.resN = int32(r), 2
			o.depOff, o.depN = int32(dep), int32(d-dep)
			o.ndeps, o.readyTime, o.start, o.finish = 0, 0, 0, 0
			r += 2
			id++
		}
	}
	if negative >= 0 {
		o := &ops[negative]
		err := fmt.Errorf("netsim: op %q has negative duration %g", o.label.String(), o.duration)
		s.ops, s.resArena, s.depArena = s.ops[:first], s.resArena[:resOff], s.depArena[:depOff]
		return 0, err
	}
	return OpID(first), nil
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
// Most graphs are timed in one pass in id order (runInOrder): nothing
// contends there, so the ready heap could only confirm that every op starts
// the moment it is ready. A graph where two ops compete for a resource, or
// might, is timed by the heap (runHeap), which the in-order pass agrees with
// bit for bit wherever it finishes.
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

// runInOrder times the ops in id order — a topological order, since AddOp
// and addLattice take dependencies on earlier ops only — starting each at
// its ready time, the latest finish among its dependencies. It gives up,
// reporting false, at the first op one of whose resources is busy past that
// ready time, or was last used, in id order, by an op ready at the same time
// or later.
//
// Where it does not give up, it is the heap's schedule. The heap pops ops in
// non-decreasing ready time (an op becomes ready no earlier than the finish
// of the op whose pop readied it), so the users of one resource, whose ready
// times rise strictly in id order here, pop in id order, and each finds the
// resource free since its predecessor's finish, at or before its own ready
// time. Every op therefore starts at its ready time under the heap too, and
// every finish, BusyUntil, BusyTime sum (added in the same order) and the
// makespan come out bit for bit the same. A NaN where a time is compared
// fails the comparison and gives up.
//
//alpacomm:hotpath
func (s *Sim) runInOrder() bool {
	res := s.resources
	if cap(s.lastReady) < len(res) {
		s.lastReady = make([]float64, len(res))
	}
	// lastReady[r] is the ready time of r's latest user; ready times are
	// never negative.
	lastReady := s.lastReady[:len(res)]
	for i := range lastReady {
		lastReady[i] = -1
	}
	ops := s.ops
	for i := range ops {
		o := &ops[i]
		ready := 0.0
		for _, d := range s.depIDs(o) {
			if f := ops[d].finish; f > ready {
				ready = f
			}
		}
		ids := s.resIDs(o)
		for _, r := range ids {
			if !(res[r].BusyUntil <= ready && lastReady[r] < ready) {
				return false
			}
		}
		o.start = ready
		o.finish = ready + o.duration
		for _, r := range ids {
			res[r].BusyUntil = o.finish
			res[r].BusyTime += o.duration
			lastReady[r] = ready
		}
		if o.finish > s.makespan {
			s.makespan = o.finish
		}
	}
	return true
}

// runHeap is the discrete-event simulation: ops become ready as their last
// dependency finishes and start in (readyTime, seq, id) order, each at the
// latest of its ready time and its resources' BusyUntil. It starts from idle
// resources, whatever an abandoned in-order pass left in them.
func (s *Sim) runHeap() error {
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
func (s *Sim) NumOps() int { return len(s.ops) }

// OpStart returns the scheduled start time of an op after Run.
func (s *Sim) OpStart(id OpID) float64 { return s.ops[id].start }

// OpFinish returns the scheduled finish time of an op after Run.
func (s *Sim) OpFinish(id OpID) float64 { return s.ops[id].finish }

// OpLabel renders the label of an op.
func (s *Sim) OpLabel(id OpID) string { return s.ops[id].label.String() }

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
