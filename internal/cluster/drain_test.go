package cluster

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alpacomm/internal/service"
)

// statusRecorder remembers the status a handler answered with.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// drainAnswer is one request body an agent sent and the body it was
// answered with.
type drainAnswer struct {
	req, body []byte
}

// TestNodeGracefulDrain holds planserver's shutdown sequence: drain, then
// snapshot. A tier node on a loopback http.Server takes new proven and
// searched keys from several agents, and Shutdown is called while a request
// is held in the handler. Counted on the server side, every request begun
// is answered, none with a 5xx; the held request's answer reaches its
// agent, and every answer an agent receives is byte-identical to a fresh
// server's. The snapshot taken after Shutdown returns restores into a fresh
// node, which serves every recorded key without computing it again.
//
// An agent may not receive an answer the server gave: net/http marks a
// keep-alive connection active only once it has read the next request, so
// Shutdown can close it as idle under a request the handler then serves
// (and, its context cancelled, answers 499).
func TestNodeGracefulDrain(t *testing.T) {
	const agents, perAgent, holdAt = 4, 24, 6
	reqs := make([][][]byte, agents)
	for g := range reqs {
		for i := 0; i < perAgent; i++ {
			mk := tierReq
			if i%2 == 1 {
				mk = searchReq
			}
			reqs[g] = append(reqs[g], mustJSON(t, mk(t, int64(1000*(g+1)+i))))
		}
	}

	srv := service.New(service.Config{})
	node, err := New(Config{NodeID: "a"}, srv)
	if err != nil {
		t.Fatal(err)
	}
	var begun, answered, failed atomic.Int64
	held, shuttingDown := make(chan struct{}), make(chan struct{})
	var heldReq []byte
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if begun.Add(1) == holdAt {
			// Hold this request until Shutdown has begun, so the drain
			// has one to wait for.
			heldReq, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(heldReq))
			close(held)
			<-shuttingDown
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		srv.ServeHTTP(rec, r)
		if rec.status >= 500 {
			failed.Add(1)
		}
		answered.Add(1)
	})}
	hs.RegisterOnShutdown(func() { close(shuttingDown) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/v2/plan"

	// Each agent sends its keys one after another until the server stops
	// taking connections.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var answers []drainAnswer
	var notOK []string
	for g := 0; g < agents; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr}
			for _, req := range reqs[g] {
				resp, err := cl.Post(url, "application/json", bytes.NewReader(req))
				if err != nil {
					return // the server is gone: nothing more is begun
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				if err != nil || resp.StatusCode != http.StatusOK {
					notOK = append(notOK, resp.Status+": "+string(b))
				} else {
					answers = append(answers, drainAnswer{req, b})
				}
				mu.Unlock()
			}
		}(g)
	}

	<-held
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	wg.Wait()

	if b, a := begun.Load(), answered.Load(); b != a || a < holdAt {
		t.Errorf("the server began %d requests and answered %d, want all of at least %d", b, a, holdAt)
	}
	if n := failed.Load(); n != 0 {
		t.Errorf("%d requests answered with a 5xx", n)
	}
	if len(notOK) != 0 {
		t.Errorf("agents got %d answers that were not 200, first: %s", len(notOK), notOK[0])
	}
	heldAnswered := false
	fresh := service.New(service.Config{})
	for _, a := range answers {
		heldAnswered = heldAnswered || bytes.Equal(a.req, heldReq)
		if want := serveJSON(t, fresh, a.req); !bytes.Equal(a.body, want) {
			t.Fatalf("drained answer differs from a fresh server's:\n %s\n vs %s", a.body, want)
		}
	}

	if !heldAnswered {
		t.Error("the request held across Shutdown got no answer")
	}
	t.Logf("%d requests answered, %d answers received", answered.Load(), len(answers))

	// The snapshot after the drain restores into a fresh node, which then
	// serves every recorded key as a hit.
	path := filepath.Join(t.TempDir(), "drained.snap")
	st, err := node.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := service.New(service.Config{})
	rnode, err := New(Config{NodeID: "a"}, restored)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := rnode.Restore(context.Background(), path)
	if err != nil || rst.Restored != st.Entries || rst.Rejected != 0 {
		t.Fatalf("restore: %+v, %v; want %d restored", rst, err, st.Entries)
	}
	before := restored.Cache().Stats().Misses
	for _, a := range answers {
		if got := serveJSON(t, restored, a.req); !bytes.Equal(got, a.body) {
			t.Fatalf("restored node's answer differs from the drained one:\n %s\n vs %s", got, a.body)
		}
	}
	if after := restored.Cache().Stats().Misses; after != before {
		t.Errorf("the restored node computed %d of the %d recorded keys again", after-before, len(answers))
	}
}
