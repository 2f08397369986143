package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"alpacomm/internal/service"
)

func mustJSON(t testing.TB, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serveJSON answers one /v2/plan request in process and returns the body.
func serveJSON(t *testing.T, srv *service.Server, body []byte) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/plan", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}

// FuzzRestore feeds arbitrary bytes to Restore as a snapshot file. It must
// not panic, must account for every record it read as restored or
// rejected, must reject no more records than the file's bytes can hold
// (a 9-byte header promising 2^32−1 records rejects one), and every entry it installed must serve the bytes a fresh
// server answers for the entry's request: a corrupt or tampered record
// never installs a plan this node would not have computed.
func FuzzRestore(f *testing.F) {
	// The seeds: a real three-record snapshot, copies cut short or with
	// one byte flipped, a header promising records it lacks, and a record
	// edited into another valid request.
	srv := service.New(service.Config{})
	node, err := New(Config{NodeID: "seed"}, srv)
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/plan", bytes.NewReader(mustJSON(f, tierReq(f, seed)))))
		if w.Code != http.StatusOK {
			f.Fatalf("seed fill: status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	path := filepath.Join(f.TempDir(), "seed.snap")
	if _, err := node.Snapshot(path); err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	for _, at := range []int{9 + 4 + 40, len(snap) / 2, len(snap) - 30} {
		bad := bytes.Clone(snap)
		bad[at] ^= 0x01
		f.Add(bad)
	}
	f.Add([]byte("APSN\x02\xff\xff\xff\xff"))
	edited := tierReq(f, 2)
	edited.Shape = []int{256, 128}
	f.Add(replaceRecord(f, snap, 1, mustJSON(f, edited)))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{})
		node, err := New(Config{NodeID: "solo"}, srv)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := node.Restore(context.Background(), path)
		if st.Restored+st.Rejected != st.Entries || st.Restored < 0 || st.Rejected < 0 {
			t.Fatalf("restore stats %+v do not add up", st)
		}
		// A record takes at least its 4-byte length, and a short tail is
		// one framing error, so the bytes read bound what is rejected.
		if st.Bytes >= 9 && int64(st.Rejected) > (st.Bytes-9)/4+1 {
			t.Fatalf("restore stats %+v reject more records than %d bytes can hold", st, st.Bytes)
		}
		for _, ep := range srv.ExportPlans() {
			if ep.Request == nil {
				t.Fatalf("installed key %q has no request", ep.Key)
			}
			body := mustJSON(t, ep.Request)
			if got, want := serveJSON(t, srv, body), serveJSON(t, service.New(service.Config{}), body); !bytes.Equal(got, want) {
				t.Fatalf("restored entry serves\n %s\na fresh server serves\n %s", got, want)
			}
		}
	})
}
