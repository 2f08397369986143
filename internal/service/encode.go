package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"

	"alpacomm/internal/percpu"
	"alpacomm/internal/resharding"
	"alpacomm/internal/sharding"
)

// The zero-alloc serve path. A plan is serialized exactly once, when its
// cache entry is filled: the leader renders the JSON body for the identity
// response and attaches it to the entry (resharding.PlanCache.Attach); the
// binary frame follows on first use. Every later hit is a pooled-buffer
// copy plus at most two in-place patches — the coalesced flag and, on a
// translated hit, the remapped sender section. Nothing on the hit path
// calls json.Marshal.

// bufPool recycles the scratch buffers of the serve path: response
// assembly, request parsing and memo-key rendering. Buffers are returned
// via putBuf, which drops oversized ones so a single giant batch response
// cannot pin memory in the pool forever.
var bufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledBuf bounds what putBuf retains; larger buffers are left to the
// collector.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// encoderPool recycles the bytes.Buffer + json.Encoder pairs writeJSON
// uses for the slow (non-pre-serialized) responses: stats, autotune,
// errors.
var encoderPool = sync.Pool{
	New: func() interface{} {
		je := &jsonEncoder{buf: &bytes.Buffer{}}
		je.enc = json.NewEncoder(je.buf)
		return je
	},
}

type jsonEncoder struct {
	buf *bytes.Buffer
	enc *json.Encoder
}

func getEncoder() *jsonEncoder {
	je := encoderPool.Get().(*jsonEncoder)
	je.buf.Reset()
	return je
}

func putEncoder(je *jsonEncoder) {
	if je.buf.Cap() > maxPooledBuf {
		return
	}
	encoderPool.Put(je)
}

// encodedPlan is the pre-serialized form of one cached plan: the full
// response bodies for the identity case plus the offsets needed to patch
// the two request-dependent parts (the coalesced flag and the sender
// devices) without re-encoding anything else. It is built once per cache
// fill by newEncodedPlan and shared read-only by every request that hits
// the entry; the serve path copies it into a pooled buffer and patches
// the copy.
type encodedPlan struct {
	// task is the task the plan was computed for; a request carrying this
	// exact task serves the identity senders verbatim. Congruent requests
	// on other hosts remap through senderPos instead.
	task *sharding.Task
	// senderPos[i] is the logical position of unit i's sender in the source
	// mesh: a translated hit's sender is task.Src.Mesh.Devices[senderPos[i]].
	senderPos []int32

	// jsonFull is the complete response body (identity senders, coalesced
	// unset) as json.Marshal renders it, without the json.Encoder's
	// trailing newline. jsonHead/jsonIdent/jsonTail are its three slices
	// around the senders array — head ends just after `"senders":[`, tail
	// runs from the closing `]` up to (excluding) the final `}` — so a
	// translated or coalesced response reuses every byte that doesn't
	// change.
	jsonFull  []byte
	jsonHead  []byte
	jsonIdent []byte
	jsonTail  []byte

	// resp is the identity response the binary frame is rendered from.
	resp PlanResponse
	// bin is the complete binary frame for the identity, non-coalesced
	// response, rendered on first use (renderBinary): most entries are
	// only ever served as JSON. The senders array lives at the fixed
	// offset binPlanSendersOff and the flags byte at binFlagsOff, so
	// patched variants copy the frame and overwrite in place.
	bin atomic.Pointer[[]byte]

	// req is the wire request that filled the entry on a tier node: what a
	// snapshot persists and a restore replays. Nil on a standalone server
	// and for a degraded fill, which no request names.
	req *PlanRequest
}

// newEncodedPlan renders the JSON body for one cached plan with the
// hand-written appenders (jsonwire.go), recording the senders array's
// offsets as it writes; the bytes are exactly what json.Marshal renders.
// It fails only on a simulation encoding/json refuses — a NaN or infinite
// float, which no real plan has (a makespan is positive and EffectiveGbps
// is guarded by it); the request then fails too, since these bodies are
// the only way a plan is served.
func newEncodedPlan(plan *resharding.Plan, sim *resharding.SimResult,
	opts resharding.Options, key string) (*encodedPlan, error) {

	task := plan.Task
	n := len(task.Units)
	senders := make([]int, n)
	pos := make(map[int]int, len(task.Src.Mesh.Devices))
	for idx, d := range task.Src.Mesh.Devices {
		pos[d] = idx
	}
	senderPos := make([]int32, n)
	for i := 0; i < n; i++ {
		senders[i] = plan.SenderOf[i]
		senderPos[i] = int32(pos[plan.SenderOf[i]])
	}

	e := &encodedPlan{
		task:      task,
		senderPos: senderPos,
		resp: PlanResponse{
			Strategy:        opts.Strategy.String(),
			Scheduler:       opts.Scheduler.String(),
			NumUnits:        n,
			Senders:         senders,
			Order:           plan.Order,
			MakespanSeconds: sim.Makespan,
			EffectiveGbps:   sim.EffectiveGbps,
			NumOps:          sim.NumOps,
			Key:             key,
			Degraded:        opts.Scheduler == resharding.SchedDegraded,
		},
	}
	full, start, end, err := appendPlanResponseJSON(nil, &e.resp)
	if err != nil {
		return nil, err
	}
	e.jsonFull = full
	e.jsonHead = full[:start]
	e.jsonIdent = full[start:end]
	e.jsonTail = full[end : len(full)-1]
	return e, nil
}

// binary returns the identity binary frame, rendering it on first use.
func (e *encodedPlan) binary() []byte {
	if p := e.bin.Load(); p != nil {
		return *p
	}
	return e.renderBinary()
}

// renderBinary renders and publishes the binary frame. Concurrent first
// uses render identical bytes, and the first published copy wins.
func (e *encodedPlan) renderBinary() []byte {
	b := appendPlanBinary(nil, &e.resp)
	if !e.bin.CompareAndSwap(nil, &b) {
		return *e.bin.Load()
	}
	return b
}

// appendJSON appends the response body for one request — without the
// trailing newline, so batch items can embed it — patching only what
// differs from the fill-time identity body.
//
//alpacomm:hotpath
func (e *encodedPlan) appendJSON(b []byte, task *sharding.Task, shared bool) []byte {
	if !shared && task == e.task {
		return append(b, e.jsonFull...)
	}
	b = append(b, e.jsonHead...)
	if task == e.task {
		b = append(b, e.jsonIdent...)
	} else {
		b = e.appendSenders(b, task)
	}
	b = append(b, e.jsonTail...)
	if shared {
		b = append(b, `,"coalesced":true`...)
	}
	return append(b, '}')
}

// appendSenders renders the translated sender list: congruent tasks have
// congruent meshes, so unit i's sender sits at the same logical position
// in this request's source mesh.
//
//alpacomm:hotpath
func (e *encodedPlan) appendSenders(b []byte, task *sharding.Task) []byte {
	devs := task.Src.Mesh.Devices
	for i, p := range e.senderPos {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(devs[p]), 10)
	}
	return b
}

// appendBinary appends the binary frame for one request, patching the
// flags byte and — on a translated hit — the fixed-offset sender section
// in the appended copy, never in the shared original.
//
//alpacomm:hotpath
func (e *encodedPlan) appendBinary(b []byte, task *sharding.Task, shared bool) []byte {
	n := len(b)
	b = append(b, e.binary()...)
	if shared {
		b[n+binFlagsOff] |= binFlagCoalesced
	}
	if task != e.task {
		devs := task.Src.Mesh.Devices
		off := n + binPlanSendersOff
		for i, p := range e.senderPos {
			putU32(b[off+4*i:], uint32(int32(devs[p])))
		}
	}
	return b
}

// parsedReq is one memoized request parse: the decomposed task, the
// normalized options and the canonical cache key — everything parseTask
// produces. Entries are immutable and shared; the planner only reads
// tasks.
type parsedReq struct {
	task *sharding.Task
	opts resharding.Options
	key  string
}

// maxMemoEntries bounds each key space of the request-parse memo. The key
// spaces are client-controlled, so a full map starts over rather than
// growing — or refusing: a memo that stopped admitting at the bound would
// stay full of whatever one-off requests got there first, and every hot
// key that arrived later would pay the full parse for the life of the
// process. Hot keys re-enter on their next request; correctness never
// depends on a memo hit.
const maxMemoEntries = 4096

// maxMemoBody bounds the request bodies the memo retains as keys (plan
// requests are 200–400 B), so a full body map pins at most
// maxMemoEntries x maxMemoBody = 8 MiB, not maxMemoEntries x maxBodyBytes.
// A longer body is served like any other and parsed every time.
const maxMemoBody = 2048

// parseMemo memoizes request parses under two names. fields is keyed by
// the raw wire fields (appendMemoKey): a repeated fault-free request that
// /v2/autotune, ParsePlanRequest or Replay parses, or that arrives at
// /v2/plan in a body not seen before, skips topology resolution, task
// decomposition and cache-key rendering. Its key holds no faults block, so
// a faulted request never enters it. bodies is keyed by a /v2/plan request
// body itself, every byte of it (never a digest: a memo-served answer must
// be the answer a fresh server gives): a repeated body skips the decode as
// well, which is most of what a cache hit used to cost. A body carries its
// fault overlay and its parse is a function of its bytes, so faulted
// bodies are admitted like fault-free ones. Two spellings of one request
// are two body entries holding the same task and key.
//
// A body is admitted only once the decoder and parseTask have both
// accepted it, so a rejected request can never be answered from here.
//
// Lookups take a per-processor read lock (percpu.RWMutex), so hits from
// different cores do not write one lock word; admissions lock it all.
type parseMemo struct {
	mu     percpu.RWMutex
	fields map[string]parsedReq
	bodies map[string]parsedReq
}

func newParseMemo() parseMemo {
	return parseMemo{fields: map[string]parsedReq{}, bodies: map[string]parsedReq{}}
}

// admit stores one parse under key, keeping the first entry if another
// request raced us in (or this one is a repeat: the key is copied only
// when it is stored) and starting the map over at the bound. Callers
// write-lock pm.mu.
func admit(m map[string]parsedReq, key []byte, pr parsedReq) {
	if _, ok := m[string(key)]; ok {
		return
	}
	if len(m) >= maxMemoEntries {
		clear(m)
	}
	m[string(key)] = pr
}

// getBody looks a request body up without allocating (the map lookup
// converts the bytes to a string key for free).
//
//alpacomm:hotpath
func (pm *parseMemo) getBody(body []byte) (parsedReq, bool) {
	i := pm.mu.RLock()
	pr, ok := pm.bodies[string(body)]
	pm.mu.RUnlock(i)
	return pr, ok
}

// putBody admits a body the decoder and parseTask accepted, faulted or
// not, unless it is too long to be worth pinning.
func (pm *parseMemo) putBody(body []byte, pr parsedReq) {
	if len(body) > maxMemoBody {
		return
	}
	pm.mu.Lock()
	admit(pm.bodies, body, pr)
	pm.mu.Unlock()
}

// appendMemoKey renders the raw request fields into b. Strings are
// NUL-separated (none of the wire fields may contain NUL and still parse)
// and numbers comma-separated, so distinct field splits never collide:
// hosts 21 and hosts 2 with oversubscription 10 are two keys.
//
//alpacomm:hotpath
func appendMemoKey(b []byte, ref TopologyRef, shape []int, dtype string, src, dst Endpoint, po PlanOptions) []byte {
	b = append(b, ref.Name...)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(ref.Hosts), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, ref.Oversubscription, 'g', -1, 64)
	b = append(b, 0)
	for _, d := range shape {
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, ',')
	}
	b = append(b, dtype...)
	b = append(b, 0)
	b = append(b, src.Mesh...)
	b = append(b, 0)
	b = append(b, src.Spec...)
	b = append(b, 0)
	b = append(b, dst.Mesh...)
	b = append(b, 0)
	b = append(b, dst.Spec...)
	b = append(b, 0)
	b = append(b, po.Strategy...)
	b = append(b, 0)
	b = append(b, po.Scheduler...)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(po.Chunks), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(po.DFSNodes), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(po.Trials), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, po.Seed, 10)
	b = append(b, 0)
	b = append(b, po.Quality...)
	return b
}

// get looks the raw request up without allocating: the scratch buffer is
// pooled and the map lookup converts it to a string key for free.
func (pm *parseMemo) get(ref TopologyRef, shape []int, dtype string, src, dst Endpoint, po PlanOptions) (parsedReq, bool) {
	buf := getBuf()
	b := appendMemoKey((*buf)[:0], ref, shape, dtype, src, dst, po)
	*buf = b
	i := pm.mu.RLock()
	pr, ok := pm.fields[string(b)]
	pm.mu.RUnlock(i)
	putBuf(buf)
	return pr, ok
}

// put stores one parse result under its raw wire fields.
func (pm *parseMemo) put(ref TopologyRef, shape []int, dtype string, src, dst Endpoint, po PlanOptions, pr parsedReq) {
	buf := getBuf()
	b := appendMemoKey((*buf)[:0], ref, shape, dtype, src, dst, po)
	*buf = b
	pm.mu.Lock()
	admit(pm.fields, b, pr)
	pm.mu.Unlock()
	putBuf(buf)
}
