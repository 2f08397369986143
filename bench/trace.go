package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the program. Spans of one request share Req; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int `json:"id"`
	Parent int `json:"parent,omitempty"`
	// Req is the operation's index in the workload's list; noReq for a
	// layer probe, which belongs to no request.
	Req int `json:"req"`
	// Problem is the index of the planning problem the call worked on.
	Problem int    `json:"problem"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Self is filled in when the trace is written: the duration minus the
	// part of the interval the span's children cover.
	Self int64 `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs share the workload code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// cursor is where the next staged child of a span is laid: staged
	// calls run after their root has returned, so they are placed inside
	// the parent back to back, in call order.
	cursor map[int]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cursor: map[int]int64{}}
}

// noReq marks a span that belongs to no request: a layer probe.
const noReq = -1

// record stores a span measured in place (a root, or a probe).
func (t *tracer) record(req, problem int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Req: req, Problem: problem, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// timed runs fn and records it as a parentless span.
func (t *tracer) timed(req, problem int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.record(req, problem, name, start, end), end.Sub(start)
}

// child lays a staged call of the given duration inside its parent, after
// the parent's earlier children.
func (t *tracer) child(parent int, name string, d time.Duration) int {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start, ok := t.cursor[parent]
	if !ok {
		start = p.Start
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: p.Req, Problem: p.Problem, Name: name, Start: start, End: start + d.Nanoseconds()})
	t.cursor[parent] = start + d.Nanoseconds()
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover. Children may overlap each other and may
// stick out of the parent; only the union inside the parent is subtracted.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

// withSelfTimes fills in every span's self time.
func withSelfTimes(spans []span) []span {
	self := selfTimes(spans)
	for i := range spans {
		spans[i].Self = self[spans[i].ID]
	}
	return spans
}

// writeJSON writes v to path; spans by the ten thousand are written
// compactly, results for people indented.
func writeJSON(path string, v any, indent bool) error {
	var data []byte
	var err error
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spanRoot names the span around a workload's end-to-end entry point.
const spanRoot = "root"
