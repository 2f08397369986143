package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"alpacomm/internal/cluster"
	"alpacomm/internal/loadmodel"
	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// workers is the load generator's concurrency: two goroutines, two request
// streams. Fixed, not derived from GOMAXPROCS, so a number means the same
// thing on every machine.
const workers = 2

// sizes fixes how much work one round of each workload is. The full sizes
// are what BENCHMARK.json measures; the smoke sizes let the tests run every
// code path in seconds.
type sizes struct {
	coldDraws    int // seeded draws of plan_cold, beside the paper problems
	hitKeys      int
	hitOps       int
	zipfKeys     int
	zipfOps      int
	tierCapacity int // total plan-cache entries of the tier, split evenly
	openRate     float64
	openOps      int // arrivals per round, split evenly between the streams
	openCache    int
	verifySample int
	// ladder is how many distinct problems the traced pass stages through
	// every layer; rootSample how many requests it replays one at a time.
	ladder     int
	rootSample int
}

var fullSizes = sizes{
	coldDraws:    structureCombos / 3,
	hitKeys:      64,
	hitOps:       100_000,
	zipfKeys:     paperProblemCount + structureCombos,
	zipfOps:      4096,
	tierCapacity: 384,
	openRate:     openMissRate,
	openOps:      paperProblemCount + structureCombos/3,
	openCache:    128,
	verifySample: 64,
	ladder:       192,
	rootSample:   2000,
}

var smokeSizes = sizes{
	coldDraws:    48,
	hitKeys:      8,
	hitOps:       2000,
	zipfKeys:     64,
	zipfOps:      200,
	tierCapacity: 24,
	openRate:     400,
	openOps:      100,
	openCache:    16,
	verifySample: 8,
	ladder:       6,
	rootSample:   40,
}

// openMissRate is open_miss's offered load in requests per second: about a
// quarter of the 2-core reference box when the benchmark was defined
// (cpu_us_per_op is about 1.2 ms there), so that each stream is busy a fifth
// of the time and the median request finds it idle. At 800 req/s the median
// sat on the steep part of the queueing curve: under a neighbour taking a
// fifth of each core its spread over ten seeds was 0.54, at 400 it is 0.05
// (README.md). It is a constant of the benchmark and is never derived from
// the code under test.
const openMissRate = 400

// state is a workload's program-side state for one round: servers with
// empty (or freshly warmed) caches. Every round starts from a new one, so
// rounds are repeated measurements rather than a drifting cache.
type state struct {
	// do executes operation i on behalf of a worker and returns the
	// simulated makespan the program answered with (0 when the answer was
	// discarded unread).
	do func(worker, i int) (makespanSeconds float64, err error)
	// servers and nodes are the program's objects, for the counts taken at
	// the same boundaries as the spans.
	servers []*service.Server
	nodes   []*cluster.Node
	urls    []string
	close   func()
}

// instance is one workload set up for one seed.
type instance struct {
	name  string
	probs []problem
	ops   []op
	open  bool
	hash  string
	fresh func() (*state, error)
	// verify checks the program's outputs on the given state and returns
	// the served makespan of problems the operation loop could not read.
	verify func(st *state, served []float64) error
}

// setupWorkload builds a workload's inputs for a seed. It is the whole of
// what setup_s times: generating and validating requests, computing the
// stream hash, and building (and, where the workload needs it, warming) one
// state to prove the set-up works.
func setupWorkload(name string, seed uint64, sz sizes) (*instance, *state, error) {
	// Each workload draws from a stream of its own, derived from the run
	// seed, so a change to one workload's draws never shifts another's.
	setups := []func(uint64, sizes) (*instance, error){setupPlanCold, setupServeHit, setupTierZipf, setupOpenMiss}
	var inst *instance
	err := fmt.Errorf("unknown workload %q", name)
	for i, w := range workloadSpecs {
		if w.Name == name {
			inst, err = setups[i](loadmodel.DeriveSeed(seed, i), sz)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	inst.hash = streamHash(inst.probs, inst.ops)
	st, err := inst.fresh()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return inst, st, nil
}

var bg = context.Background()

// ---------------------------------------------------------------------------
// plan_cold: the library path. Parse, plan, simulate; no cache, no HTTP.

func setupPlanCold(seed uint64, sz sizes) (*instance, error) {
	g := newGenerator(seed)
	g.cards = sampleCards()
	probs, err := g.population(paperProblemCount + sz.coldDraws)
	if err != nil {
		return nil, err
	}
	ops := make([]op, len(probs))
	for i := range ops {
		ops[i] = op{Problem: i}
	}
	// Heavy problems cluster in the paper prefix; shuffle so both workers
	// see the same mix.
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	inst := &instance{name: planCold, probs: probs, ops: ops}
	// kept holds the plans of the verification sample from the last round.
	type result struct {
		plan *resharding.Plan
		sim  *resharding.SimResult
	}
	kept := make([]result, len(probs))
	inst.fresh = func() (*state, error) {
		// A new server per round keeps its parse memo cold: every parse
		// decomposes and renders the key, as the first request for a
		// problem does.
		srv := service.New(service.Config{})
		return &state{
			servers: []*service.Server{srv},
			close:   func() {},
			do: func(_, i int) (float64, error) {
				o := ops[i]
				task, opts, _, err := srv.ParsePlanRequest(bg, &probs[o.Problem].Req)
				if err != nil {
					return 0, err
				}
				plan, err := resharding.NewPlanContext(bg, task, opts)
				if err != nil {
					return 0, err
				}
				sim, err := plan.SimulateNoTrace()
				if err != nil {
					return 0, err
				}
				if o.Problem < sz.verifySample {
					kept[o.Problem] = result{plan, sim}
				}
				return sim.Makespan, nil
			},
		}, nil
	}
	inst.verify = func(_ *state, served []float64) error {
		for i := 0; i < sz.verifySample && i < len(probs); i++ {
			if kept[i].plan == nil {
				return fmt.Errorf("problem %d was never planned", i)
			}
			if err := samePlan(probs[i], kept[i].plan, kept[i].sim); err != nil {
				return fmt.Errorf("problem %d: %w", i, err)
			}
		}
		return checkTable2Ordering(probs, served)
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// serve_hit: the handler's hit path, in process, answers discarded.

// replayBody is a rewindable request body, so the hit loop allocates no
// reader per request.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// discardWriter records the status and drops the body: serve_hit measures
// the handler, not a network stack.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(s int)           { d.status = s }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// captureWriter keeps the body, for output verification.
type captureWriter struct {
	discardWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) { return c.body.Write(p) }

// planHTTPRequest builds a /v2/plan POST for in-process serving; binary
// selects the binary wire format.
func planHTTPRequest(req *service.PlanRequest, binary bool) (*http.Request, *bytes.Reader, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	rd := bytes.NewReader(body)
	hr, err := http.NewRequest(http.MethodPost, "/v2/plan", replayBody{rd})
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if binary {
		hr.Header.Set("Accept", service.ContentTypeBinary)
	}
	return hr, rd, nil
}

// serveCaptured serves one request in process and returns status and body.
func serveCaptured(h http.Handler, req *service.PlanRequest, binary bool) (int, []byte, error) {
	hr, _, err := planHTTPRequest(req, binary)
	if err != nil {
		return 0, nil, err
	}
	w := &captureWriter{discardWriter: discardWriter{h: http.Header{}}}
	h.ServeHTTP(w, hr)
	return w.status, w.body.Bytes(), nil
}

func setupServeHit(seed uint64, sz sizes) (*instance, error) {
	g := newGenerator(seed)
	g.cards = hottestCards(max(0, sz.hitKeys-paperProblemCount))
	probs, err := g.population(sz.hitKeys)
	if err != nil {
		return nil, err
	}
	ops := make([]op, sz.hitOps)
	for i := range ops {
		// Formats alternate, so one number charges both: a gain for one
		// wire format that costs the other shows.
		ops[i] = op{Problem: g.deal("key", len(probs)), Variant: i % 2}
	}
	inst := &instance{name: serveHit, probs: probs, ops: ops}

	type prepared struct {
		hr *http.Request
		rd *bytes.Reader
	}
	// Requests are per worker: a rewound body cannot be shared.
	reqs := make([][][2]prepared, workers)
	for w := range reqs {
		reqs[w] = make([][2]prepared, len(probs))
		for p := range probs {
			for v := 0; v < 2; v++ {
				hr, rd, err := planHTTPRequest(&probs[p].Req, v == 1)
				if err != nil {
					return nil, err
				}
				reqs[w][p][v] = prepared{hr, rd}
			}
		}
	}
	inst.fresh = func() (*state, error) {
		srv := service.New(service.Config{})
		// Warm every key in both formats: fills the plan cache, the parse
		// memo and the pre-serialized bodies.
		for p := range probs {
			for v := 0; v < 2; v++ {
				status, body, err := serveCaptured(srv, &probs[p].Req, v == 1)
				if err != nil || status != http.StatusOK {
					return nil, fmt.Errorf("warming key %d: status %d, %v: %s", p, status, err, body)
				}
			}
		}
		writers := make([]*discardWriter, workers)
		for w := range writers {
			writers[w] = &discardWriter{h: http.Header{}}
		}
		return &state{
			servers: []*service.Server{srv},
			close:   func() {},
			do: func(worker, i int) (float64, error) {
				o := ops[i]
				pr := reqs[worker][o.Problem][o.Variant]
				if _, err := pr.rd.Seek(0, io.SeekStart); err != nil {
					return 0, err
				}
				w := writers[worker]
				w.status = 0
				srv.ServeHTTP(w, pr.hr)
				if w.status != http.StatusOK {
					return 0, fmt.Errorf("status %d", w.status)
				}
				return 0, nil
			},
		}, nil
	}
	inst.verify = func(st *state, served []float64) error {
		return verifyServers(st.servers, probs, served)
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// tier_zipf: a 2-node tier over loopback TCP, skewed keys, some faulted.

const tierNodes = 2

// One tier_zipf request in faultedOneIn carries a fault scenario, and key
// popularity falls off as rank^-zipfExponent.
const (
	faultedOneIn = 10
	zipfExponent = 1.1
)

// listenLoopback opens n loopback listeners; all are up before any node is
// built, so every node knows every peer's address.
func listenLoopback(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	return lns, urls, nil
}

// serveOn serves h on ln until the returned stop function is called; stop
// returns once the serving goroutine has exited.
func serveOn(ln net.Listener, h http.Handler) (stop func()) {
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always returns ErrServerClosed after Close
	}()
	return func() {
		_ = hs.Close()
		<-done
	}
}

// startTier builds an n-node tier over loopback TCP whose caches hold
// capacity entries in total.
func startTier(n, capacity int) (*state, error) {
	lns, urls, err := listenLoopback(n)
	if err != nil {
		return nil, err
	}
	st := &state{urls: urls}
	var stops []func()
	for i := 0; i < n; i++ {
		peers := map[string]string{}
		for j := 0; j < n; j++ {
			if j != i {
				peers[fmt.Sprintf("node%d", j)] = urls[j]
			}
		}
		srv := service.New(service.Config{Cache: resharding.NewLRUPlanCache(capacity / n)})
		node, err := cluster.New(cluster.Config{NodeID: fmt.Sprintf("node%d", i), SelfAddr: urls[i], Peers: peers}, srv)
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			return nil, err
		}
		st.servers = append(st.servers, srv)
		st.nodes = append(st.nodes, node)
		stops = append(stops, serveOn(lns[i], node.Handler()))
	}
	st.close = func() {
		for _, stop := range stops {
			stop()
		}
	}
	return st, nil
}

// workerClients gives each worker its own connection pool to each base URL,
// so the generator holds exactly one request stream per worker.
func workerClients(urls []string) (clients [][]*service.Client, closeIdle func()) {
	var transports []*http.Transport
	clients = make([][]*service.Client, workers)
	for w := range clients {
		tr := &http.Transport{MaxIdleConnsPerHost: 4}
		transports = append(transports, tr)
		for _, u := range urls {
			clients[w] = append(clients[w], service.NewClient(u, &http.Client{Transport: tr}))
		}
	}
	return clients, func() {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
	}
}

// clientDo is the operation of both TCP workloads: one /v2/plan round trip,
// answered with the right problem.
func clientDo(cl *service.Client, p *problem) (float64, error) {
	resp, err := cl.PlanV2(bg, &p.Req)
	if err != nil {
		return 0, err
	}
	if resp.Key != p.Key {
		return 0, fmt.Errorf("answered key %q, want %q", resp.Key, p.Key)
	}
	return resp.MakespanSeconds, nil
}

func setupTierZipf(seed uint64, sz sizes) (*instance, error) {
	g := newGenerator(seed)
	probs, err := g.population(sz.zipfKeys)
	if err != nil {
		return nil, err
	}
	// Popularity is by structure, the same at every seed: the paper's
	// problems are the hot keys, and the seeded draws follow in a fixed
	// shuffle of the structure deck. With s=1.1 a few dozen keys carry most
	// requests and the next few hundred most misses, so letting the seed
	// pick which structures those are would make each seed a different
	// workload; the seed still picks their extents, topology and options.
	tail := probs[min(paperProblemCount, len(probs)):]
	sort.SliceStable(tail, func(i, j int) bool { return cardRank[tail[i].Structure] < cardRank[tail[j].Structure] })
	// faulted[k] is the index of key k's faulted twin, created on first use.
	faulted := map[int]int{}
	// The seed orders the requests; how often each rank is asked for, how
	// many requests are faulted and how many go to each node come from decks
	// and strata, the same at every seed, so that two seeds differ in what
	// they ask for and when but not in how much work that is.
	ranks := zipfRanks(sz.zipfKeys, sz.zipfOps, zipfExponent)
	g.rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	ops := make([]op, sz.zipfOps)
	for i := range ops {
		k := ranks[i]
		if g.deal("faulted", faultedOneIn) == 0 {
			f, ok := faulted[k]
			if !ok {
				f = k
				if fp, ok := g.withFault(probs[k]); ok {
					probs = append(probs, fp)
					f = len(probs) - 1
				}
				faulted[k] = f
			}
			k = f
		}
		// Requests are spread evenly over the nodes with no owner affinity,
		// so about half the misses take the proxy hop.
		ops[i] = op{Problem: k, Variant: g.deal("node", 8*tierNodes) % tierNodes}
	}
	inst := &instance{name: tierZipf, probs: probs, ops: ops}
	inst.fresh = func() (*state, error) {
		st, err := startTier(tierNodes, sz.tierCapacity)
		if err != nil {
			return nil, err
		}
		clients, closeIdle := workerClients(st.urls)
		stopTier := st.close
		st.close = func() { closeIdle(); stopTier() }
		st.do = func(worker, i int) (float64, error) {
			o := ops[i]
			return clientDo(clients[worker][o.Variant], &probs[o.Problem])
		}
		return st, nil
	}
	inst.verify = func(st *state, served []float64) error {
		return verifyServers(st.servers, probs[:min(sz.verifySample, len(probs))], served)
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// open_miss: Poisson arrivals to one server, nearly every request a miss.

func setupOpenMiss(seed uint64, sz sizes) (*instance, error) {
	g := newGenerator(seed)
	g.cards = sampleCards()
	var ops []op
	for w := 0; w < workers; w++ {
		// A fixed number of arrivals over a fixed span: Poisson gaps, scaled
		// so the stream's last request is due exactly when its share of the
		// offered rate says. Every seed then offers the same load, and the
		// achieved rate does not carry the sampling noise of the arrivals.
		arrivals := loadmodel.NewPoisson(sz.openRate/workers, loadmodel.DeriveSeed(seed, w))
		n := sz.openOps / workers
		dues := make([]time.Duration, n)
		due := time.Duration(0)
		for i := range dues {
			due += arrivals.Next()
			dues[i] = due
		}
		span := float64(n) / (sz.openRate / workers) * float64(time.Second)
		for _, d := range dues {
			ops = append(ops, op{Variant: w, Due: time.Duration(float64(d) / float64(due) * span)})
		}
	}
	// Each request is a distinct problem, in seeded order.
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	probs, err := g.population(len(ops))
	if err != nil {
		return nil, err
	}
	for i, p := range g.rng.Perm(len(ops)) {
		ops[i].Problem = p
	}
	inst := &instance{name: openMiss, probs: probs, ops: ops, open: true}
	inst.fresh = func() (*state, error) {
		lns, urls, err := listenLoopback(1)
		if err != nil {
			return nil, err
		}
		srv := service.New(service.Config{Cache: resharding.NewLRUPlanCache(sz.openCache)})
		stop := serveOn(lns[0], srv)
		clients, closeIdle := workerClients(urls)
		return &state{
			servers: []*service.Server{srv},
			urls:    urls,
			close:   func() { closeIdle(); stop() },
			do: func(worker, i int) (float64, error) {
				return clientDo(clients[worker][0], &probs[ops[i].Problem])
			},
		}, nil
	}
	inst.verify = func(st *state, served []float64) error {
		return verifyServers(st.servers, probs[:min(sz.verifySample, len(probs))], served)
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// Running a round.

// runRound executes the instance's operation list once on st. Closed
// loops split the list between the workers by index parity; the open loop
// gives each worker its own arrival stream and sends each request when it
// is due, or at once if the worker is behind. A non-nil tracer records one
// root span per operation.
func runRound(inst *instance, st *state, tr *tracer, opMakespan []float64) roundResult {
	type perWorker struct {
		lat, late []float64
		failed    int
		within    int
		last      time.Time
	}
	res := make([]perWorker, workers)
	runtime.GC()
	before := readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &res[w]
			r.lat = make([]float64, 0, len(inst.ops)/workers+1)
			for i, o := range inst.ops {
				if inst.open {
					if o.Variant != w {
						continue
					}
				} else if i%workers != w {
					continue
				}
				sent := time.Now()
				from := sent
				if inst.open {
					due := start.Add(o.Due)
					if wait := due.Sub(sent); wait > 0 {
						// A plain sleep: it wakes late by the machine's
						// timer slack (0.6 ms on the reference box), which
						// is then inside the latency and reported as
						// generator lateness. Spinning to the due time
						// instead would take a core from the server.
						time.Sleep(wait)
						sent = time.Now()
					}
					r.late = append(r.late, float64(sent.Sub(due).Nanoseconds())/1e3)
					from = due
				}
				mk, err := st.do(w, i)
				done := time.Now()
				tr.record(i, o.Problem, spanRoot, sent, done)
				if err != nil {
					r.failed++
					continue
				}
				opMakespan[i] = mk
				lat := done.Sub(from)
				r.lat = append(r.lat, float64(lat.Nanoseconds())/1e3)
				if lat <= sloLimit {
					r.within++
				}
			}
			r.last = time.Now()
		}(w)
	}
	wg.Wait()
	end := res[0].last
	for _, r := range res[1:] {
		if r.last.After(end) {
			end = r.last
		}
	}
	after := readUsage()
	out := roundResult{
		wall:      end.Sub(start),
		attempted: len(inst.ops),
		use:       usage{cpu: after.cpu - before.cpu, allocBytes: after.allocBytes - before.allocBytes},
	}
	for _, r := range res {
		out.latencies = append(out.latencies, r.lat...)
		out.lateness = append(out.lateness, r.late...)
		out.failed += r.failed
		out.withinSLO += r.within
	}
	return out
}
