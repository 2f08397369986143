package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"testing"
)

// The hand-written /v2/plan codec (jsonwire.go) is held to encoding/json,
// its reference: the fill encoder to json.Marshal, the request encoder to
// json.Encoder.Encode, the parser to json.Unmarshal — bytes, values and
// failures alike.

// fuzzInts turns fuzz bytes into an int slice of every shape the codec
// must tell apart: nil, empty, small values and full int64 range.
func fuzzInts(mode byte, b []byte) []int {
	switch mode % 4 {
	case 0:
		return nil
	case 1:
		return []int{}
	case 2:
		out := make([]int, 0, len(b))
		for _, c := range b {
			out = append(out, int(int8(c)))
		}
		return out
	default:
		out := make([]int, 0, len(b)/8)
		for ; len(b) >= 8; b = b[8:] {
			out = append(out, int(int64(binary.LittleEndian.Uint64(b))))
		}
		return out
	}
}

// Awkward strings every string seed corpus carries: escapes, HTML
// characters, control bytes, invalid UTF-8, U+2028, a surrogate's
// encoding, DEL and a real cache key.
var fuzzStrings = []string{
	"", "broadcast", `q"uo\te`, "<script>&amp;</script>", "\x00\x01\x1f\b\f\n\r\t",
	"\xff\xfe bad \xc3", "line sep ", "\xed\xa0\x80", "\x7f", "é漢字🚀",
	"p3/2/1|[128,128]/4|2x2@0/S01R|2x2@4/S0R|o=broadcast/ensemble/1/50000/32/7",
}

func FuzzPlanResponseJSON(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 1.5e-3, 1e-7, 123456789.125, 1e21, 1e20, -2.5e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, s := range fuzzStrings {
		f.Add(s, fuzzStrings[(i+1)%len(fuzzStrings)], s, i*7-3, i, byte(i), []byte{1, 2, 250, 0, 9, 8, 7, 6, 5},
			byte(i+1), []byte{3, 0, 1}, math.Float64bits(floats[i%len(floats)]), math.Float64bits(floats[(i+5)%len(floats)]), i%2 == 0, i%3 == 0)
	}
	f.Fuzz(func(t *testing.T, strategy, scheduler, key string, units, ops int, sm byte, senders []byte,
		om byte, order []byte, makespan, gbps uint64, degraded, coalesced bool) {
		r := &PlanResponse{
			Strategy: strategy, Scheduler: scheduler, NumUnits: units,
			Senders: fuzzInts(sm, senders), Order: fuzzInts(om, order),
			MakespanSeconds: math.Float64frombits(makespan), EffectiveGbps: math.Float64frombits(gbps),
			NumOps: ops, Key: key, Degraded: degraded, Coalesced: coalesced,
		}
		want, wantErr := json.Marshal(r)
		prefix := []byte("prefix")
		got, start, end, err := appendPlanResponseJSON(prefix, r)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, json.Marshal %v", err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed render left %q behind", got)
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("render differs\n got %s\nwant %s", got[len(prefix):], want)
		}
		if r.Senders != nil {
			ints := appendJSONInts(nil, r.Senders)
			if !bytes.HasSuffix(got[:start], []byte(`"senders":[`)) || !bytes.Equal(got[start:end], ints[1:len(ints)-1]) || got[end] != ']' {
				t.Fatalf("senders offsets [%d,%d) wrong in %s", start, end, got)
			}
		}
	})
}

func FuzzPlanRequestJSON(f *testing.F) {
	for i, s := range fuzzStrings {
		f.Add(s, i, math.Float64bits(float64(i)*0.75), byte(i), []byte{4, 4, 0, 200},
			s, fuzzStrings[(i+3)%len(fuzzStrings)], fuzzStrings[(i+5)%len(fuzzStrings)],
			i*100, int64(i)*-7, s, byte(i*37), math.Float64bits([]float64{0, 0.5, math.NaN(), math.Inf(-1), 1e-9}[i%5]))
	}
	f.Fuzz(func(t *testing.T, name string, hosts int, oversub uint64, shapeMode byte, shape []byte,
		dtype, mesh, spec string, chunks int, seed int64, quality string, faultMode byte, scale uint64) {
		r := &PlanRequest{
			Topology: TopologyRef{Name: name, Hosts: hosts, Oversubscription: math.Float64frombits(oversub)},
			Shape:    fuzzInts(shapeMode, shape),
			DType:    dtype,
			Src:      Endpoint{Mesh: mesh, Spec: spec},
			Dst:      Endpoint{Mesh: spec, Spec: mesh},
			Options: PlanOptions{Strategy: quality, Scheduler: dtype, Chunks: chunks, DFSNodes: hosts,
				Trials: chunks / 3, Seed: seed, Quality: quality},
		}
		// faultMode picks the overlay: none, empty, or links and hosts
		// whose optional members come and go with its bits.
		if faultMode&1 != 0 {
			f := math.Float64frombits(scale)
			r.Faults = &FaultsRef{Scenario: name}
			for k := 0; k < int(faultMode>>1&3); k++ {
				r.Faults.Links = append(r.Faults.Links, LinkFaultRef{A: k, B: hosts, Down: faultMode&8 != 0,
					BandwidthScale: f * float64(k), ExtraLatencySeconds: float64(faultMode>>4) * 1e-7})
				r.Faults.Hosts = append(r.Faults.Hosts, HostFaultRef{Host: -k, NICScale: f, IntraScale: float64(k) / 3})
			}
			if faultMode&0x40 != 0 {
				r.Faults.Links = []LinkFaultRef{}
			}
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(r)
		got, err := appendPlanRequestJSON([]byte("prefix"), r)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, json.Encoder %v", err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed render left %q behind", got)
			}
			return
		}
		if !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("render differs\n got %s\nwant %s", got[len("prefix"):], want.Bytes())
		}
	})
}

// parseSeeds are documents for the parser: the served layout, every
// spelling encoding/json accepts, and near misses it refuses.
var parseSeeds = []string{
	`{"strategy":"broadcast","scheduler":"ensemble","num_units":4,"senders":[0,1,2,3],"order":[3,2,1,0],"makespan_seconds":0.0013421,"effective_gbps":97.5,"num_ops":17,"key":"p3/2|k<>&","degraded":true,"coalesced":true}` + "\n",
	` { "Key" : "a" , "KEY":"b", "kEy" :"Key", "key":null } `,
	`{"Key":"kelvin","ſtrategy":"long s","NUM_UNITS":2,"num_units":null}`,
	`{"strategy":"esc \" \\ \/ \b \f \n \r \t é 🚀 \ud800 \udc00x \ud800A \udbff\udfff \u212a"}`,
	"{\"key\":\"bad \xff\xfe utf8 \xc3\"}",
	`{"unknown":{"a":[1,{"b":[null,true,false,-0.5e-3]}],"c":{}},"x":[],"num_ops":3}`,
	`{"senders":[1,2,3],"senders":[5],"senders":[null,null,null,null]}`,
	`{"order":[1,2],"order":[],"order":[null]}`,
	`{"senders":[9,9],"senders":null,"senders":[null]}`,
	`{"senders":[],"order":null}`,
	`null`, ` null `, `{}`, `[]`, `"s"`, `1`, `true`,
	`{"num_units":1.0}`, `{"num_units":1e2}`, `{"num_units":-0}`, `{"num_units":9223372036854775807}`,
	`{"num_units":9223372036854775808}`, `{"makespan_seconds":1e400}`, `{"makespan_seconds":1e-400}`,
	`{"makespan_seconds":NaN}`, `{"effective_gbps":Infinity}`, `{"makespan_seconds":-1.5E+2}`,
	`{"num_units":01}`, `{"num_units":+1}`, `{"num_units":.5}`, `{"num_units":1.}`, `{"num_units":"1"}`,
	`{"strategy":1}`, `{"degraded":"true"}`, `{"degraded":nul}`, `{"senders":[1,]}`, `{"senders":[1 2]}`,
	`{"senders":["1"]}`, `{"senders":[1.5]}`, `{"senders":{}}`, `{"key":"a",}`, `{"key" "a"}`, `{key:"a"}`,
	`{"key":"a"} x`, `{"key":"a"}}`, `{"key":"\x"}`, `{"key":"\u12"}`, "{\"key\":\"tab\there\"}", `{"key":"a`,
	`{"a":[[[[[[[[[[]]]]]]]]]]}`, `{"a":'x'}`, "\xef\xbb\xbf{}", ``, ` `,
}

func FuzzParsePlanResponse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseMatchesUnmarshal(t, data)
	})
}

func checkParseMatchesUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	var want, got PlanResponse
	wantErr := json.Unmarshal(data, &want)
	err := parsePlanResponse(data, &got)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: parse error %v, json.Unmarshal %v", data, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: parsed\n %#v\njson.Unmarshal\n %#v", data, got, want)
	}
}

// scannedSeeds are /v2/plan bodies the request scanner must parse as
// decodeStrict does: every member, both fault lists, case-folded and
// escaped names, escaped and invalid strings, nulls everywhere.
var scannedSeeds = []string{
	`{"topology":{"name":"mixed","hosts":3,"oversubscription":1.5},"shape":[384,48],"dtype":"fp32","src":{"mesh":"2x4@0","spec":"S01R"},"dst":{"mesh":"2x4@12","spec":"S1R"},"options":{"seed":9},"faults":{"scenario":"straggler"}}`,
	`{"topology":{"name":"p3","hosts":2},"shape":[64,96],"src":{"mesh":"2x2@0","spec":"S01R"},"dst":{"mesh":"2x2@4","spec":"S0R"},"options":{},"faults":{"links":[{"a":0,"b":1,"down":true},null,{"a":1,"b":2,"bandwidth_scale":0.5,"extra_latency_seconds":1e-6}],"hosts":[{"host":1,"nic_scale":0.5,"intra_scale":0.25},null]}}`,
	` { "Topology" : { "NAME" : "p3" , "Hosts":2 } , "SHAPE":[4,4], "ſrc":{"Mesh":"1x2@0","\u0073pec":"S0"}, "dst":{"mesh":"1x2@4","spec":"R"}, "options":{"chun\u212as":1} } `,
	`{"options":{"strategy":"broadcast","scheduler":"ensemble","chunks":8,"dfs_nodes":200,"trials":4,"seed":-7,"quality":"full"},"dtype":"fp16"}`,
	`{"topology":{"name":"esc \" \\ \/ \b \f \n \r \t é 🚀 \ud800 \udc00x \udbff\udfff"}}`,
	"{\"dtype\":\"bad \xff\xfe utf8 \xc3\"}",
	`{"topology":null,"shape":null,"dtype":null,"src":null,"dst":null,"options":null,"faults":null}`,
	`{"shape":[1,null,3],"options":{"seed":null,"chunks":null},"faults":{"links":[],"hosts":null}}`,
	`{"faults":{}}`, `{"faults":{"links":[null]}}`, `{"faults":{"hosts":[{}]}}`,
}

// requestSeeds are bodies on the edge: repeated members, floats in int
// fields, numbers out of range, unknown members, trailing bytes, bad
// syntax and other top-level values. The scanner declines most of them,
// and decodeStrict refuses most of those.
var requestSeeds = []string{
	`{"shape":[1,2],"shape":[3]}`, `{"topology":{"name":"p3"},"topology":{"hosts":2}}`,
	`{"faults":{"links":[{"a":1}]},"faults":{"scenario":"brownout"}}`, `{"dtype":"fp16","DType":"fp32"}`,
	`{"faults":null,"faults":{}}`, `{"topology":{"hosts":2,"Hosts":null}}`,
	`{"topology":{"hosts":2.0}}`, `{"topology":{"hosts":1e2}}`, `{"options":{"seed":1.5}}`, `{"shape":[1.0]}`,
	`{"options":{"seed":9223372036854775808}}`, `{"options":{"seed":-9223372036854775808}}`,
	`{"topology":{"oversubscription":1e400}}`, `{"topology":{"oversubscription":-0}}`, `{"faults":{"links":[{"bandwidth_scale":2}]}}`,
	`{"preset":"p3"}`, `{"topology":{"name":"p3","preset":1}}`, `{"faults":{"links":[{"c":1}]}}`, `{"options":{"x":null}}`,
	`{"shape":[4,4]} trailing`, `{"shape":[4,4]}}`, `{"shape":[4,4]}{"shape":[1]}`, `{"shape":[4,4]` + "\n",
	`null`, ` null x`, `[]`, `"s"`, `1`, `true`, ``, ` `, `{`, `{"shape":[4,4]`, `{"shape":[4,,4]}`,
	`{"shape":"4"}`, `{"topology":"p3"}`, `{"faults":[]}`, `{"faults":{"links":{}}}`, `{"faults":{"hosts":[1]}}`,
	`{"faults":{"links":[{"down":"true"}]}}`, `{"faults":{"links":[{"down":nul}]}}`, `{"dtype":"\x"}`, `{key:"a"}`,
	"ï»¿{}", `{"unknown":[[[[]]]]}`,
}

// FuzzDecodePlanRequest holds the server's request scanner to its
// reference: whenever parsePlanRequest accepts a body, decodeStrict
// accepts it too and decodes the same request. A declined body is
// decodeStrict's alone, so it needs no property.
func FuzzDecodePlanRequest(f *testing.F) {
	for _, r := range clientRequests() {
		b, err := appendPlanRequestJSON(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range append(scannedSeeds, requestSeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestMatchesDecodeStrict(t, data)
	})
}

func checkRequestMatchesDecodeStrict(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	var got PlanRequest
	if parsePlanRequest(data, &got) != nil {
		return false
	}
	var want PlanRequest
	if err := decodeStrict(bytes.NewReader(data), &want); err != nil {
		t.Fatalf("%q: the scanner accepts what decodeStrict refuses: %v\nscanned %#v", data, err, got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: scanned\n %#v\ndecodeStrict\n %#v", data, got, want)
	}
	return true
}

// clientRequests are requests as clients send them: every field the wire
// carries, with and without each kind of fault overlay.
func clientRequests() []*PlanRequest {
	full := testReq(3)
	full.Topology = TopologyRef{Name: "mixed", Hosts: 3, Oversubscription: 1.5}
	full.DType = "fp16"
	full.Options = PlanOptions{Strategy: "broadcast", Scheduler: "ensemble", Chunks: 8, DFSNodes: 200, Trials: 4, Seed: -7, Quality: "full"}
	return []*PlanRequest{
		testReq(1), full,
		faultyReq(2, stragglerFaults), faultyReq(2, brownoutFaults), faultyReq(2, &FaultsRef{}),
		faultyReq(2, &FaultsRef{Scenario: "link-down", Links: []LinkFaultRef{{A: 0, B: 1, Down: true}, {A: 1, B: 2, ExtraLatencySeconds: 1e-7}},
			Hosts: []HostFaultRef{{Host: 2, NICScale: 0.5, IntraScale: 0.25}}}),
	}
}

// TestParsePlanRequestTakesClientBodies: the scanner parses every body a
// client renders and every scannedSeeds spelling, so a miss in ordinary
// traffic never falls through to decodeStrict.
func TestParsePlanRequestTakesClientBodies(t *testing.T) {
	var bodies [][]byte
	for _, r := range clientRequests() {
		b, err := appendPlanRequestJSON(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b, mustJSON(t, r))
	}
	for _, s := range scannedSeeds {
		bodies = append(bodies, []byte(s))
	}
	for _, b := range bodies {
		if !checkRequestMatchesDecodeStrict(t, b) {
			t.Errorf("the scanner declines %s", b)
		}
	}
}

// TestParsePlanResponseDepth: encoding/json refuses a document nested past
// 10 000 containers, skipped or not, and so does the parser.
func TestParsePlanResponseDepth(t *testing.T) {
	for _, depth := range []int{maxJSONDepth - 1, maxJSONDepth, maxJSONDepth + 1} {
		inner := depth - 1 // the response object is one level
		doc := `{"x":` + string(bytes.Repeat([]byte("["), inner)) + string(bytes.Repeat([]byte("]"), inner)) + `}`
		checkParseMatchesUnmarshal(t, []byte(doc))
	}
}

// TestParsePlanResponseCopiesStrings: nothing parsed aliases the document,
// so the client may hand its buffer back to the pool.
func TestParsePlanResponseCopiesStrings(t *testing.T) {
	doc := []byte(`{"strategy":"broadcast","key":"abc","senders":[1]}`)
	var p PlanResponse
	if err := parsePlanResponse(doc, &p); err != nil {
		t.Fatal(err)
	}
	for i := range doc {
		doc[i] = 'x'
	}
	if p.Strategy != "broadcast" || p.Key != "abc" {
		t.Fatalf("strings alias the document: %+v", p)
	}
}

// TestServedBodiesParse: the bodies the server renders — identity,
// translated onto other hosts, degraded — parse to what json.Unmarshal
// reads from them, through the client too.
func TestServedBodiesParse(t *testing.T) {
	s, c := newTestServer(t, Config{})
	moved := testReq(1)
	moved.Topology.Hosts = 4
	moved.Src.Mesh, moved.Dst.Mesh = "2x2@8", "2x2@12"
	degraded := testReq(1)
	degraded.Options.Scheduler = "greedy-degraded"
	for _, req := range []*PlanRequest{testReq(1), testReq(1), moved, degraded} {
		r := send(s, mustJSON(t, req), "")
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		checkParseMatchesUnmarshal(t, []byte(r.body))
		var want PlanResponse
		if err := json.Unmarshal([]byte(r.body), &want); err != nil {
			t.Fatal(err)
		}
		got, err := c.PlanV2(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("client read\n %+v\nserved\n %+v", *got, want)
		}
	}
}

// BenchmarkPlanResponseJSON times the client's two halves of a plan round
// trip on a 16-unit served body, and the server's decode of the request,
// by hand and by encoding/json.
func BenchmarkPlanResponseJSON(b *testing.B) {
	s := New(Config{})
	req := &PlanRequest{
		Topology: TopologyRef{Name: "p3", Hosts: 4},
		Shape:    []int{62, 96},
		Src:      Endpoint{Mesh: "2x4@0", Spec: "RS1"},
		Dst:      Endpoint{Mesh: "2x4@8", Spec: "S1S0"},
		Options:  PlanOptions{Seed: 1, DFSNodes: 200, Chunks: 8},
	}
	r := send(s, mustJSON(b, req), "")
	if r.status != http.StatusOK {
		b.Fatalf("status %d: %s", r.status, r.body)
	}
	body := []byte(r.body)
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p PlanResponse
			if err := parsePlanResponse(body, &p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Decoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p PlanResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
				b.Fatal(err)
			}
		}
	})
	reqBody, err := appendPlanRequestJSON(nil, req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse_request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := parsePlanRequest(reqBody, new(PlanRequest)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decodeStrict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decodeStrict(bytes.NewReader(reqBody), new(PlanRequest)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("render_request", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendPlanRequestJSON(buf[:0], req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Encoder", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := enc.Encode(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
