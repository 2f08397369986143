package service

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary wire format. Responses are negotiated via the Accept header:
// a request accepting ContentTypeBinary receives a length-prefixed
// little-endian frame instead of JSON, carrying exactly the fields of the
// JSON payload — including the structured error envelope — so the two
// formats decode to identical values. JSON remains the default, and
// /v2/stats is JSON-only.
//
// Every frame is magic "APB1", a kind byte, then the kind's body:
//
//	plan (1):     flags u8 (bit0 = coalesced, bit1 = degraded) |
//	              num_units u32 | num_ops u32 |
//	              makespan f64 | effective_gbps f64 |
//	              senders  u32 count + i32 × count |
//	              order    u32 count + i32 × count |
//	              strategy str | scheduler str | key str
//	autotune (2): flags u8 (bit0 = coalesced) | best_index u32 |
//	              makespan f64 | effective_gbps f64 | winner str |
//	              trials u32 count × (candidate str | makespan f64 |
//	                                  effective_gbps f64 | err str)
//	batch (3):    distinct u32 | coalesced u32 |
//	              items u32 count × (tag u8: 0 = plan frame, 1 = error frame)
//	error (4):    code str | message str | retryable u8 |
//	              retry_after_seconds u32
//
// str is u32 length + raw bytes. The plan body's fixed prefix puts the
// flags byte and the sender array at constant offsets (binFlagsOff,
// binPlanSendersOff), which is what lets a pre-serialized frame be patched
// in place for coalesced and translated responses.

// ContentTypeBinary is the negotiated media type of the binary format.
const ContentTypeBinary = "application/x-alpacomm-plan"

const (
	binKindPlan     = 1
	binKindAutotune = 2
	binKindBatch    = 3
	binKindError    = 4
)

const (
	binFlagCoalesced = 1 << 0
	// binFlagDegraded marks a plan computed with the search-free degraded
	// scheduler (SLO admission); plan frames only.
	binFlagDegraded = 1 << 1
	// binFlagsOff is the flags byte's offset in a plan frame.
	binFlagsOff = 5
	// binPlanSendersOff is the offset of the first sender i32 in a plan
	// frame: magic(4) + kind(1) + flags(1) + num_units(4) + num_ops(4) +
	// makespan(8) + effective_gbps(8) + sender count(4).
	binPlanSendersOff = 34
)

var binMagic = [4]byte{'A', 'P', 'B', '1'}

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendMagic(b []byte, kind byte) []byte {
	b = append(b, binMagic[:]...)
	return append(b, kind)
}

// appendPlanBinary appends a full plan frame for the response.
func appendPlanBinary(b []byte, r *PlanResponse) []byte {
	b = appendMagic(b, binKindPlan)
	var flags byte
	if r.Coalesced {
		flags |= binFlagCoalesced
	}
	if r.Degraded {
		flags |= binFlagDegraded
	}
	b = append(b, flags)
	b = appendU32(b, uint32(r.NumUnits))
	b = appendU32(b, uint32(r.NumOps))
	b = appendF64(b, r.MakespanSeconds)
	b = appendF64(b, r.EffectiveGbps)
	b = appendU32(b, uint32(len(r.Senders)))
	for _, s := range r.Senders {
		b = appendU32(b, uint32(int32(s)))
	}
	b = appendU32(b, uint32(len(r.Order)))
	for _, o := range r.Order {
		b = appendU32(b, uint32(int32(o)))
	}
	b = appendStr(b, r.Strategy)
	b = appendStr(b, r.Scheduler)
	return appendStr(b, r.Key)
}

// appendAutotuneBinary appends a full autotune frame.
func appendAutotuneBinary(b []byte, r *AutotuneResponse) []byte {
	b = appendMagic(b, binKindAutotune)
	var flags byte
	if r.Coalesced {
		flags |= binFlagCoalesced
	}
	b = append(b, flags)
	b = appendU32(b, uint32(r.BestIndex))
	b = appendF64(b, r.MakespanSeconds)
	b = appendF64(b, r.EffectiveGbps)
	b = appendStr(b, r.Winner)
	b = appendU32(b, uint32(len(r.Trials)))
	for i := range r.Trials {
		t := &r.Trials[i]
		b = appendStr(b, t.Candidate)
		b = appendF64(b, t.MakespanSeconds)
		b = appendF64(b, t.EffectiveGbps)
		b = appendStr(b, t.Err)
	}
	return b
}

// appendErrorBinary appends a full error frame — the binary form of
// V2ErrorEnvelope.
func appendErrorBinary(b []byte, e *V2Error) []byte {
	b = appendMagic(b, binKindError)
	b = appendStr(b, e.Code)
	b = appendStr(b, e.Message)
	var retryable byte
	if e.Retryable {
		retryable = 1
	}
	b = append(b, retryable)
	return appendU32(b, uint32(e.RetryAfterSeconds))
}

// appendBatchBinary appends a full batch frame from already-rendered item
// frames; see handlePlanBatch for the streaming assembly the server uses
// instead.
func appendBatchBinary(b []byte, r *BatchPlanResponse) []byte {
	b = appendBatchBinaryHeader(b, r.Distinct, r.Coalesced, len(r.Items))
	for i := range r.Items {
		b = appendBatchItemBinary(b, &r.Items[i])
	}
	return b
}

// appendBatchBinaryHeader appends the batch frame prefix up to (and
// including) the item count; item frames follow.
func appendBatchBinaryHeader(b []byte, distinct, coalesced, items int) []byte {
	b = appendMagic(b, binKindBatch)
	b = appendU32(b, uint32(distinct))
	b = appendU32(b, uint32(coalesced))
	return appendU32(b, uint32(items))
}

// appendBatchItemBinary appends one item: a tag byte plus the nested plan
// or error frame.
func appendBatchItemBinary(b []byte, it *BatchPlanItemResult) []byte {
	if it.Error != nil {
		b = append(b, 1)
		return appendErrorBinary(b, it.Error)
	}
	b = append(b, 0)
	return appendPlanBinary(b, it.Plan)
}

// binReader is a bounds-checked cursor over one frame; every read
// validates the remaining length, so malformed input yields an error,
// never a panic or an oversized allocation.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("service: binary decode: "+format, args...)
	}
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

func (r *binReader) u8() byte {
	if r.err != nil || r.remaining() < 1 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *binReader) u32() uint32 {
	if r.err != nil || r.remaining() < 4 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *binReader) f64() float64 {
	if r.err != nil || r.remaining() < 8 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if int64(n) > int64(r.remaining()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.remaining())
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// ints reads a count-prefixed i32 array, bounding the allocation by the
// bytes actually present.
func (r *binReader) ints() []int {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int64(n)*4 > int64(r.remaining()) {
		r.fail("array length %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(r.u32()))
	}
	return out
}

// flags reads a flags byte, rejecting bits outside the frame kind's mask:
// the format has one canonical encoding per value, so every accepted
// frame re-encodes to the exact bytes it arrived as.
func (r *binReader) flags(mask byte) byte {
	v := r.u8()
	if r.err == nil && v&^mask != 0 {
		r.fail("undefined flag bits %#x", v)
		return 0
	}
	return v
}

// boolean reads a bool byte, rejecting values other than 0 and 1 for the
// same canonical-encoding reason as flags.
func (r *binReader) boolean() bool {
	v := r.u8()
	if r.err == nil && v > 1 {
		r.fail("non-canonical bool byte %#x", v)
		return false
	}
	return v == 1
}

// magic consumes the frame prefix and returns the kind byte.
func (r *binReader) magic() byte {
	if r.err != nil || r.remaining() < 5 {
		r.fail("frame shorter than its header")
		return 0
	}
	if [4]byte(r.data[r.off:r.off+4]) != binMagic {
		r.fail("bad magic %q", r.data[r.off:r.off+4])
		return 0
	}
	r.off += 4
	return r.u8()
}

func (r *binReader) plan() *PlanResponse {
	var p PlanResponse
	flags := r.flags(binFlagCoalesced | binFlagDegraded)
	p.Coalesced = flags&binFlagCoalesced != 0
	p.Degraded = flags&binFlagDegraded != 0
	p.NumUnits = int(r.u32())
	p.NumOps = int(r.u32())
	p.MakespanSeconds = r.f64()
	p.EffectiveGbps = r.f64()
	p.Senders = r.ints()
	p.Order = r.ints()
	p.Strategy = r.str()
	p.Scheduler = r.str()
	p.Key = r.str()
	if r.err != nil {
		return nil
	}
	return &p
}

func (r *binReader) autotune() *AutotuneResponse {
	var a AutotuneResponse
	flags := r.flags(binFlagCoalesced)
	a.Coalesced = flags&binFlagCoalesced != 0
	a.BestIndex = int(r.u32())
	a.MakespanSeconds = r.f64()
	a.EffectiveGbps = r.f64()
	a.Winner = r.str()
	n := r.u32()
	if r.err != nil {
		return nil
	}
	// Each trial is at least 4+8+8+4 bytes; bound the allocation by what
	// the frame can actually hold.
	if int64(n)*24 > int64(r.remaining()) {
		r.fail("trial count %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	a.Trials = make([]AutotuneTrial, n)
	for i := range a.Trials {
		a.Trials[i].Candidate = r.str()
		a.Trials[i].MakespanSeconds = r.f64()
		a.Trials[i].EffectiveGbps = r.f64()
		a.Trials[i].Err = r.str()
	}
	if r.err != nil {
		return nil
	}
	return &a
}

func (r *binReader) errorEnvelope() *V2Error {
	var e V2Error
	e.Code = r.str()
	e.Message = r.str()
	e.Retryable = r.boolean()
	e.RetryAfterSeconds = int(r.u32())
	if r.err != nil {
		return nil
	}
	return &e
}

func (r *binReader) batch() *BatchPlanResponse {
	var b BatchPlanResponse
	b.Distinct = int(r.u32())
	b.Coalesced = int(r.u32())
	n := r.u32()
	if r.err != nil {
		return nil
	}
	// Each item is at least a tag byte plus a frame header.
	if int64(n)*6 > int64(r.remaining()) {
		r.fail("item count %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	b.Items = make([]BatchPlanItemResult, n)
	for i := range b.Items {
		tag := r.u8()
		kind := r.magic()
		if r.err != nil {
			return nil
		}
		switch {
		case tag == 0 && kind == binKindPlan:
			b.Items[i].Plan = r.plan()
		case tag == 1 && kind == binKindError:
			b.Items[i].Error = r.errorEnvelope()
		default:
			r.fail("item %d: tag %d does not match frame kind %d", i, tag, kind)
			return nil
		}
	}
	if r.err != nil {
		return nil
	}
	return &b
}

// decodeBinary decodes one complete frame into any of the response types
// (or *V2Error for an error frame). Trailing bytes after the frame are an
// error: frames are self-delimiting, so leftovers mean a framing bug.
func decodeBinary(data []byte) (interface{}, error) {
	r := &binReader{data: data}
	kind := r.magic()
	var v interface{}
	switch kind {
	case binKindPlan:
		v = r.plan()
	case binKindAutotune:
		v = r.autotune()
	case binKindBatch:
		v = r.batch()
	case binKindError:
		v = r.errorEnvelope()
	default:
		if r.err == nil {
			r.fail("unknown frame kind %d", kind)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("service: binary decode: %d trailing bytes after frame", r.remaining())
	}
	return v, nil
}
