package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"alpacomm/internal/resharding"
)

// Effort caps of FuzzPlanRequestV2: a body that decodes to a request asking
// for more than this is skipped, so the fuzzer spends its time on the
// request grammar, not on one legitimately heavy search.
const (
	// What a request naming no budget gets; the server bound is 200x that.
	fuzzMaxDFSNodes = resharding.DefaultDFSNodes
	fuzzMaxTrials   = 64
	fuzzMaxChunks   = 64
	fuzzMaxHosts    = 8
)

// FuzzPlanRequestV2 posts arbitrary bytes to /v2/plan on an in-process
// server. The invariants: the handler never panics, the status is one a
// deadline-free request can produce (200, 400, 422, 429), a 200 body is a
// PlanResponse with one sender per unit, and every other body is a
// V2ErrorEnvelope with a code a client can branch on. Every input goes to
// the long-lived server twice — the second send is the one the body-keyed
// parse memo may answer — and once to a server that has seen nothing: all
// three answers must be the same bytes.
func FuzzPlanRequestV2(f *testing.F) {
	marshal := func(v interface{}) []byte { return mustJSON(f, v) }
	f.Add(marshal(testReq(1)))
	f.Add(marshal(faultyReq(2, stragglerFaults)))
	full := testReq(3)
	full.Options.Quality = "full"
	full.Options.Strategy, full.Options.Scheduler = "broadcast", "ensemble"
	full.DType = "fp16"
	f.Add(marshal(full))
	f.Add([]byte(`{"topology":{"name":"mixed","hosts":3,"oversubscription":1.5},"shape":[8,8],` +
		`"src":{"mesh":"1x4@0","spec":"RS1"},"dst":{"mesh":"2x2@4","spec":"S0S1"},"options":{"dfs_nodes":50}}`))
	f.Add([]byte(`{"topology":{"name":"p3","hosts":2},"shape":[4,4],"preset":"p3"}`))
	f.Add([]byte(`{"topology":{"name":"p3","hosts":2},"shape":[-1,0],"src":{"mesh":"2x2","spec":"Q"}}`))
	f.Add([]byte(`{"topology":`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})

	s := New(Config{Cache: resharding.NewLRUPlanCache(64)})
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe PlanRequest
		if json.Unmarshal(data, &probe) == nil {
			o := probe.Options
			if o.DFSNodes > fuzzMaxDFSNodes || o.Trials > fuzzMaxTrials ||
				o.Chunks > fuzzMaxChunks || probe.Topology.Hosts > fuzzMaxHosts {
				t.Skip("request asks for more effort than the fuzz caps allow")
			}
		}
		first, again, fresh := send(s, data, ""), send(s, data, ""), send(New(Config{}), data, "")
		if again != first || fresh != first {
			t.Fatalf("the long-lived server's first answer, its second and a fresh server's differ:\n%+v\n%+v\n%+v", first, again, fresh)
		}
		body := []byte(first.body)
		switch first.status {
		case http.StatusOK:
			var resp PlanResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("200 body is not a PlanResponse: %v\n%s", err, body)
			}
			if resp.NumUnits == 0 || len(resp.Senders) != resp.NumUnits || resp.Key == "" {
				t.Fatalf("200 body is not a complete plan: %s", body)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
			var env V2ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("%d body is not a V2ErrorEnvelope: %v\n%s", first.status, err, body)
			}
			if env.Error.Code == "" {
				t.Fatalf("%d envelope without a code: %s", first.status, body)
			}
		default:
			t.Fatalf("status %d outside {200, 400, 422, 429}: %s", first.status, body)
		}
	})
}
