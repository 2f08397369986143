package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"alpacomm/internal/resharding"
	"alpacomm/internal/sharding"
)

// What this file holds of the /v2 API:
//
//   - a structured, machine-readable error envelope ({"error": {code,
//     message, retryable, retry_after_seconds}}), so clients branch on
//     codes rather than parsing prose;
//
//   - deadline propagation: the X-Timeout-Ms request header bounds the
//     server-side work (queue wait, coalesced wait, grid search) with a
//     context deadline, so a client budget reaches every layer below;
//
//   - POST /v2/plan:batch — all stage boundaries of a pipeline job in one
//     request. Items are grouped by canonical cache key server-side, so the
//     congruent boundaries of a deep pipeline cost one planner computation
//     total, and every item's senders are remapped into its own meshes.

// TimeoutHeader is the /v2 deadline-propagation header: a positive integer
// millisecond budget for the whole server-side computation.
const TimeoutHeader = "X-Timeout-Ms"

// MaxTimeoutMs caps the propagated deadline; like every client-supplied
// parameter it must not scale server state unboundedly.
const MaxTimeoutMs = 10 * 60 * 1000

// MaxBatchItems bounds one /v2/plan:batch request: deeper jobs split into
// multiple requests (the cache makes the split free).
const MaxBatchItems = 256

// V2 error codes.
const (
	// CodeInvalidArgument: the request cannot be planned as written (400).
	CodeInvalidArgument = "invalid_argument"
	// CodeUnplannable: the request parsed but planning failed (422).
	CodeUnplannable = "unplannable"
	// CodeOverloaded: admission queues are full; retry after backoff (429).
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the propagated deadline fired first (504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the client went away mid-computation (499).
	CodeCanceled = "canceled"
	// CodeMethodNotAllowed: wrong HTTP method (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeInternal: the server could not encode its own response (500).
	CodeInternal = "internal"
)

// V2Error is the structured error payload of every non-2xx /v2 response,
// wrapped as {"error": {...}}. Retryable errors carry the same request
// again later; RetryAfterSeconds, when set, is the server's backoff hint.
type V2Error struct {
	Code              string `json:"code"`
	Message           string `json:"message"`
	Retryable         bool   `json:"retryable,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// V2ErrorEnvelope is the /v2 error body.
type V2ErrorEnvelope struct {
	Error V2Error `json:"error"`
}

// BatchPlanItem is one boundary of a /v2/plan:batch request; the topology
// is shared by the whole batch.
type BatchPlanItem struct {
	Shape   []int       `json:"shape"`
	DType   string      `json:"dtype,omitempty"`
	Src     Endpoint    `json:"src"`
	Dst     Endpoint    `json:"dst"`
	Options PlanOptions `json:"options"`
}

// BatchPlanRequest plans every stage boundary of a pipeline job in one
// request. Congruent items (same canonical cache key under host
// translation) are planned once. The optional Faults overlay applies to
// the whole batch — the degraded-fleet shape of the same job — and
// re-keys every item away from its healthy twin.
type BatchPlanRequest struct {
	Topology TopologyRef     `json:"topology"`
	Faults   *FaultsRef      `json:"faults,omitempty"`
	Items    []BatchPlanItem `json:"items"`
}

// BatchPlanItemResult is one item's outcome: exactly one of Plan and Error
// is set. Item-level errors (a malformed boundary, an unplannable spec) do
// not fail the sibling items; batch-level failures (overload, deadline)
// fail the whole request with a top-level envelope instead.
type BatchPlanItemResult struct {
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error *V2Error      `json:"error,omitempty"`
}

// BatchPlanResponse reports a batch in request order.
type BatchPlanResponse struct {
	Items []BatchPlanItemResult `json:"items"`
	// Distinct is the number of congruent-boundary equivalence classes the
	// batch collapsed to — the number of planner computations the request
	// could cost at most (cache hits cost zero).
	Distinct int `json:"distinct"`
	// Coalesced counts distinct classes served from another request's
	// in-flight computation.
	Coalesced int `json:"coalesced"`
}

// timeoutMs validates the X-Timeout-Ms header: 0 when absent, otherwise
// the budget clamped to MaxTimeoutMs.
//
//alpacomm:hotpath
func timeoutMs(r *http.Request) (int, error) {
	h := r.Header.Get(TimeoutHeader)
	if h == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms <= 0 {
		return 0, &badRequestError{fmt.Errorf("bad %s header %q: want a positive integer millisecond budget", TimeoutHeader, h)}
	}
	if ms > MaxTimeoutMs {
		ms = MaxTimeoutMs
	}
	return ms, nil
}

// v2Ctx derives the request context from the X-Timeout-Ms header. The
// returned cancel must always be called.
func v2Ctx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ms, err := timeoutMs(r)
	if err != nil {
		return nil, nil, err
	}
	if ms == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// v2Error classifies an error into its envelope and HTTP status. ctx is
// the request's own context: a context error that the request's ctx did
// NOT produce is not this request's own budget running out (a coalesced
// waiter retries past a cancelled leader, see flightGroup.do, so none is
// expected), and it gets a retryable "overloaded", not a deadline/cancel
// code that would lie about the request's budget.
func (s *Server) v2Error(ctx context.Context, err error) (int, V2Error) {
	var bad *badRequestError
	ctxErr := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	switch {
	case errors.Is(err, errOverloaded) || errors.Is(err, errSLOShed) || (ctxErr && ctx.Err() == nil):
		return http.StatusTooManyRequests, V2Error{
			Code: CodeOverloaded, Message: err.Error(), Retryable: true,
			RetryAfterSeconds: retryAfterSeconds(s.retryAfter),
		}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, V2Error{
			Code: CodeDeadlineExceeded, Message: err.Error(), Retryable: true,
		}
	case errors.Is(err, context.Canceled):
		// 499 (client closed request): the requester is gone.
		return 499, V2Error{Code: CodeCanceled, Message: err.Error(), Retryable: true}
	case errors.As(err, &bad):
		return http.StatusBadRequest, V2Error{Code: CodeInvalidArgument, Message: bad.err.Error()}
	default:
		return http.StatusUnprocessableEntity, V2Error{Code: CodeUnplannable, Message: err.Error()}
	}
}

// failV2 writes the envelope — JSON or, when the request negotiated it,
// the binary error frame — and bumps the endpoint counters:
// 429/deadline/cancel count as rejected, the rest as errors.
func (s *Server) failV2(ctx context.Context, w http.ResponseWriter, c *endpointCounters, err error, bin bool) {
	status, ve := s.v2Error(ctx, err)
	if ve.Retryable {
		c.rejected.Add(1)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.retryAfter)))
		}
	} else {
		c.errors.Add(1)
	}
	s.writeV2Error(w, status, ve, bin)
}

// failPlan is failV2 for /v2/plan. With the controller on, every 429 is a
// shed, whoever refused — the controller, the plan pool or the intake gate:
// it carries the admission header and counts in shed_requests, so "why was
// this refused" has one answer. fullOnly marks a client that required full
// quality.
func (s *Server) failPlan(ctx context.Context, w http.ResponseWriter, err error, fullOnly, bin bool) {
	if s.slo != nil {
		if status, _ := s.v2Error(ctx, err); status == http.StatusTooManyRequests {
			w.Header().Set(AdmissionHeader, "shed")
			s.slo.NoteShed(fullOnly)
		}
	}
	s.failV2(ctx, w, s.planC.pick(), err, bin)
}

// writeV2Error renders one envelope in the request's negotiated format.
func (s *Server) writeV2Error(w http.ResponseWriter, status int, ve V2Error, bin bool) {
	if !bin {
		writeJSON(w, status, V2ErrorEnvelope{Error: ve})
		return
	}
	buf := getBuf()
	b := appendErrorBinary((*buf)[:0], &ve)
	*buf = b
	writeBinary(w, status, b)
	putBuf(buf)
}

// requirePost answers anything but a POST with the 405 envelope and
// reports whether the handler may go on.
func (s *Server) requirePost(w http.ResponseWriter, r *http.Request, c *endpointCounters, bin bool) bool {
	if r.Method == http.MethodPost {
		return true
	}
	c.errors.Add(1)
	s.writeV2Error(w, http.StatusMethodNotAllowed, V2Error{
		Code: CodeMethodNotAllowed, Message: "use POST",
	}, bin)
	return false
}

// badBody classifies a body that could not be read or decoded.
func badBody(err error) error {
	return &badRequestError{fmt.Errorf("bad request body: %v", err)}
}

// decodeStrict decodes the first JSON value of rd into dst, unknown fields
// rejected; whatever follows that value is ignored.
func decodeStrict(rd io.Reader, dst interface{}) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badBody(err)
	}
	return nil
}

// decodeV2 reads a POST JSON body into dst — size-bounded, unknown fields
// rejected; on failure it writes the error envelope and returns false.
func (s *Server) decodeV2(w http.ResponseWriter, r *http.Request, dst interface{}, c *endpointCounters, bin bool) bool {
	if !s.requirePost(w, r, c, bin) {
		return false
	}
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst); err != nil {
		s.failV2(r.Context(), w, c, err, bin)
		return false
	}
	return true
}

// getBody reads the whole request body into the pooled buffer, growing it
// as needed up to maxBodyBytes; the bytes are valid until buf is released.
//
//alpacomm:hotpath
func getBody(w http.ResponseWriter, r *http.Request, buf *[]byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				return b, nil
			}
			return nil, err
		}
	}
}

// serveMemoized is all a repeated request costs: a body the parse memo
// knows, whose full-quality plan is cached, is answered from the entry's
// pre-serialized bytes with the bookkeeping every hit gets — deadline
// header validated, in-flight gauge, one SLO Admit and one Observe (a
// cached full-quality hit is served in every admission mode) — and
// without a decode, a PlanRequest or a memo-key rendering. It
// reports whether it answered; false means nothing was written, and the
// caller decodes the same bytes: the memo holds parses, never decoded
// requests, because a body whose plan is gone is about to pay for a fill
// the decode is a few percent of. (An entry that cannot be serialized is
// left to that path too, which fails the request.) It counts in c, the
// request's copy of the endpoint counters.
//
//alpacomm:hotpath
func (s *Server) serveMemoized(w http.ResponseWriter, r *http.Request, c *endpointCounters, body []byte, bin bool, start time.Time) bool {
	pr, ok := s.reqMemo.getBody(body)
	if !ok {
		return false
	}
	if _, err := timeoutMs(r); err != nil {
		s.failV2(r.Context(), w, c, err, bin)
		return true
	}
	enc, _ := s.cachedPlan(pr.key, pr.opts)
	if enc == nil {
		return false
	}
	c.inFlight.Add(1)
	if s.slo != nil {
		s.slo.Admit(len(s.plan.queue))
	}
	servePlan(w, c, enc, pr.task, false, bin)
	if s.slo != nil {
		s.slo.Observe(time.Since(start))
	}
	c.inFlight.Add(-1)
	return true
}

// handlePlanV2 plans and simulates one resharding through the shared
// planner session, under the propagated deadline and SLO admission.
//
// The body is read whole (bounded by maxBodyBytes) and the parse memo is
// asked for those bytes first: a hit is a lookup by what the client sent
// (serveMemoized), faulted or not. Every other request — a body not seen
// before, one whose plan was evicted — is a miss in two phases. Phase one
// holds one intake token, taken before the body is decoded: decode
// (parsePlanRequest, or decodeStrict for a body the scanner declines),
// parse (a body both accept enters the memo), the cache check,
// the draft and, for a draft the closed-form candidates prove, the fill.
// A proven miss is served at full quality in every admission mode: it
// takes no plan-pool token, and degrading it would not make it cheaper.
// Only a draft that must search gives the token back and meets the
// controller's verdict (phase two):
//
//   - full: a plan-pool token, then the search. A faulted request plans
//     from its own draft like any other: whatever the cache holds for
//     other overlays of its boundary, neither is looked up.
//   - degraded: re-keyed to the search-free scheduler (degradeOptions),
//     whose draft is proven, so it finishes like phase one.
//   - shed: the degraded twin if it is cached, else the structured
//     overloaded envelope.
//
// A client that required full quality ("quality":"full") is never answered
// with a degraded plan: outside full mode its search is shed. Reading
// before decoding has one visible edge: a body over maxBodyBytes is refused
// even when its first JSON value, the only part the decoder looks at,
// would have fit inside the limit.
func (s *Server) handlePlanV2(w http.ResponseWriter, r *http.Request) {
	// The clock is read only for the controller's latency sample.
	var start time.Time
	if s.slo != nil {
		start = time.Now()
	}
	c := s.planC.pick()
	c.requests.Add(1)
	bin := wantsBinary(r)
	if !s.requirePost(w, r, c, bin) {
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	body, err := getBody(w, r, buf)
	if err != nil {
		s.failV2(r.Context(), w, c, badBody(err), bin)
		return
	}
	if s.serveMemoized(w, r, c, body, bin, start) {
		return
	}
	ctx, cancel, err := v2Ctx(r)
	if err != nil {
		s.failV2(r.Context(), w, c, err, bin)
		return
	}
	defer cancel()
	// Refused here, the body was never decoded: whether the client
	// required full quality is unknown.
	if err := s.intake.acquire(ctx); err != nil {
		s.failPlan(ctx, w, err, false, bin)
		return
	}
	release := sync.OnceFunc(s.intake.release)
	defer release()
	c.decoded.Add(1)
	var req PlanRequest
	if parsePlanRequest(body, &req) != nil {
		req = PlanRequest{}
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			s.failV2(ctx, w, c, err, bin)
			return
		}
	}
	fullOnly := req.Options.Quality == "full"
	task, opts, cacheKey, err := s.parseTask(ctx, nil, req.Topology, req.Faults, req.Shape, req.DType, req.Src, req.Dst, req.Options)
	if err != nil {
		s.failPlan(ctx, w, err, fullOnly, bin)
		return
	}
	s.reqMemo.putBody(body, parsedReq{task: task, opts: opts, key: cacheKey})

	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	// Every request is admitted once, as a memoized hit is; only a search
	// obeys the verdict.
	mode := AdmitFull
	if s.slo != nil {
		mode = s.slo.Admit(len(s.plan.queue))
	}
	enc, err := s.cachedPlan(cacheKey, opts)
	var d resharding.Draft
	if enc == nil && err == nil {
		d, err = resharding.NewDraft(task, opts)
	}
	shared, degraded := false, false
	switch {
	case enc != nil || err != nil: // a hit, or a draft that failed
	case d.Proven():
		enc, shared, err = s.computePlan(ctx, cacheKey, task, opts, &d, &req)
	case mode == AdmitFull:
		release()
		enc, shared, err = s.computePlan(ctx, cacheKey, task, opts, &d, &req)
	case fullOnly:
		err = errSLOShed
	default:
		release()
		degraded = true
		dOpts := degradeOptions(opts)
		dKey := resharding.CacheKey(task, dOpts)
		if mode == AdmitDegraded {
			enc, shared, err = s.computePlan(ctx, dKey, task, dOpts, nil, nil)
		} else if enc, err = s.cachedPlan(dKey, dOpts); enc == nil && err == nil {
			err = errSLOShed
		}
	}
	release()
	if err != nil {
		s.failPlan(ctx, w, err, fullOnly, bin)
		return
	}
	if shared {
		c.coalesced.Add(1)
	}
	if degraded {
		w.Header().Set(AdmissionHeader, "degraded")
		s.slo.NoteDegraded()
	}
	servePlan(w, c, enc, task, shared, bin)
	if s.slo != nil {
		s.slo.Observe(time.Since(start))
	}
}

// degradeOptions is the degraded twin of full-quality options: the
// search-free scheduler with every search knob normalized away, so all
// degraded fills of one boundary share one cache key no matter which
// seeds, trials or node budgets the original requests carried — and that
// key can never collide with a full-quality entry (the scheduler is part
// of resharding.CacheKey).
func degradeOptions(o resharding.Options) resharding.Options {
	d := resharding.Options{
		Strategy:  o.Strategy,
		Scheduler: resharding.SchedDegraded,
		Chunks:    o.Chunks,
	}
	return d.WithDefaults()
}

// handleAutotuneV2 runs one strategy x scheduler grid search; a
// propagated deadline (or disconnect) aborts it queued or running.
func (s *Server) handleAutotuneV2(w http.ResponseWriter, r *http.Request) {
	c := s.autotuneC.pick()
	c.requests.Add(1)
	bin := wantsBinary(r)
	var req AutotuneRequest
	if !s.decodeV2(w, r, &req, c, bin) {
		return
	}
	if req.Workers < 0 {
		s.failV2(r.Context(), w, c, &badRequestError{fmt.Errorf("negative workers")}, bin)
		return
	}
	ctx, cancel, err := v2Ctx(r)
	if err != nil {
		s.failV2(r.Context(), w, c, err, bin)
		return
	}
	defer cancel()
	task, opts, cacheKey, err := s.parseTask(ctx, s.intake,
		req.Topology, req.Faults, req.Shape, req.DType, req.Src, req.Dst, req.Options)
	if err != nil {
		s.failV2(ctx, w, c, err, bin)
		return
	}

	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	v, shared, err := s.computeAutotune(ctx, cacheKey, task, opts, req.Workers)
	if err != nil {
		s.failV2(ctx, w, c, err, bin)
		return
	}
	resp := *v
	resp.Coalesced = shared
	if shared {
		c.coalesced.Add(1)
	}
	if bin {
		buf := getBuf()
		b := appendAutotuneBinary((*buf)[:0], &resp)
		*buf = b
		c.ok.Add(1)
		writeBinary(w, http.StatusOK, b)
		putBuf(buf)
		return
	}
	c.ok.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// batchItem is one parsed batch entry, carrying its equivalence class.
type batchItem struct {
	task *sharding.Task
	opts resharding.Options
	key  string
	err  error // parse error; the item is excluded from planning
}

// handlePlanBatch plans all boundaries of a pipeline job in one request.
// Items are parsed under one intake token, grouped by canonical cache key,
// and each distinct class is planned once through the shared session —
// exactly the computation N individual /v2/plan calls would coalesce to,
// without the N round trips.
func (s *Server) handlePlanBatch(w http.ResponseWriter, r *http.Request) {
	c := s.batchC.pick()
	c.requests.Add(1)
	bin := wantsBinary(r)
	var req BatchPlanRequest
	if !s.decodeV2(w, r, &req, c, bin) {
		return
	}
	if len(req.Items) == 0 {
		s.failV2(r.Context(), w, c, &badRequestError{fmt.Errorf("empty batch")}, bin)
		return
	}
	if len(req.Items) > MaxBatchItems {
		s.failV2(r.Context(), w, c, &badRequestError{fmt.Errorf("batch has %d items, server bound is %d", len(req.Items), MaxBatchItems)}, bin)
		return
	}
	ctx, cancel, err := v2Ctx(r)
	if err != nil {
		s.failV2(r.Context(), w, c, err, bin)
		return
	}
	defer cancel()

	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)

	// Parse every item under one intake token: the whole batch is one
	// admission to the pre-planning stage, not MaxBatchItems of them. The
	// token is released by defer inside the closure so a panic in task
	// building cannot leak an intake slot.
	items := make([]batchItem, len(req.Items))
	if err := func() error {
		if err := s.intake.acquire(ctx); err != nil {
			return err
		}
		defer s.intake.release()
		// The topology and the fault overlay are shared by the whole
		// batch: resolve them once (overlay validation and down-link
		// detour precomputation are not free), then decompose per item. A
		// bad shared block fails every item identically, keeping the
		// per-item error semantics of other parse failures.
		topo, topoErr := buildTopology(s.reg, &s.topos, req.Topology, req.Faults)
		for i, it := range req.Items {
			if topoErr != nil {
				items[i] = batchItem{err: &badRequestError{fmt.Errorf("item %d: %v", i, topoErr)}}
				continue
			}
			task, opts, err := buildTaskOn(topo, it.Shape, it.DType, it.Src, it.Dst, it.Options)
			if err != nil {
				items[i] = batchItem{err: &badRequestError{fmt.Errorf("item %d: %v", i, err)}}
				continue
			}
			items[i] = batchItem{task: task, opts: opts, key: resharding.CacheKey(task, opts)}
		}
		return nil
	}(); err != nil {
		s.failV2(ctx, w, c, err, bin)
		return
	}

	// Group by equivalence class in first-seen order and plan each class
	// once, fanning distinct classes out concurrently — bounded by the
	// plan pool width, so one batch can saturate the workers it would be
	// admitted to anyway but cannot flood the admission queue. A
	// batch-level failure (overload, deadline, disconnect) aborts the
	// request: its items were never independently at fault.
	order := make([]string, 0, len(items))
	leaders := map[string]int{}
	for i := range items {
		if items[i].err != nil {
			continue
		}
		if _, seen := leaders[items[i].key]; !seen {
			leaders[items[i].key] = i
			order = append(order, items[i].key)
		}
	}
	classes := make(map[string]*encodedPlan, len(order))
	classShared := make(map[string]bool, len(order))
	classErrs := map[string]error{}
	coalesced := 0
	var fatal error
	var mu sync.Mutex
	gate := make(chan struct{}, cap(s.plan.slots))
	var wg sync.WaitGroup
	for _, key := range order {
		wg.Add(1)
		go func(key string, li int) {
			defer wg.Done()
			gate <- struct{}{}
			defer func() { <-gate }()
			// Each class is planned here like an individual plan request
			// would be; the per-item wire request, built only on this
			// miss path, is what a tier node's snapshot replays.
			it := &req.Items[li]
			itemReq := &PlanRequest{
				Topology: req.Topology, Faults: req.Faults,
				Shape: it.Shape, DType: it.DType,
				Src: it.Src, Dst: it.Dst, Options: it.Options,
			}
			enc, shared, err := s.computePlan(ctx, key, items[li].task, items[li].opts, nil, itemReq)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if shared {
					coalesced++
					classShared[key] = true
				}
				classes[key] = enc
			case errors.Is(err, errOverloaded) || ctx.Err() != nil:
				// Admission overflow, or the batch's own deadline/client is
				// gone: the whole request fails retryably.
				if fatal == nil {
					fatal = err
				}
			default:
				// This class alone reports its error while siblings keep
				// their plans.
				classErrs[key] = err
			}
		}(key, leaders[key])
	}
	wg.Wait()
	if fatal != nil {
		s.failV2(ctx, w, c, fatal, bin)
		return
	}
	c.coalesced.Add(int64(coalesced))

	// Assemble the whole response into one pooled buffer: every planned
	// item appends its class's pre-serialized body (senders remapped into
	// its own meshes where needed) and item errors — the rare path —
	// marshal individually. One buffer, one Write, no per-item allocation
	// on the happy path.
	buf := getBuf()
	b := (*buf)[:0]
	if bin {
		b = appendBatchBinaryHeader(b, len(order), coalesced, len(items))
	} else {
		b = append(b, `{"items":[`...)
	}
	for i := range items {
		itemErr := items[i].err
		if itemErr == nil && items[i].key != "" {
			if err, ok := classErrs[items[i].key]; ok {
				itemErr = err
			}
		}
		if !bin && i > 0 {
			b = append(b, ',')
		}
		if itemErr != nil {
			_, ve := s.v2Error(ctx, itemErr)
			if bin {
				b = append(b, 1)
				b = appendErrorBinary(b, &ve)
				continue
			}
			eb, err := json.Marshal(&ve)
			if err != nil {
				// Unreachable for V2Error; keep the envelope well-formed.
				eb = []byte(`{"code":"unplannable","message":"error encoding failed"}`)
			}
			b = append(b, `{"error":`...)
			b = append(b, eb...)
			b = append(b, '}')
			continue
		}
		enc := classes[items[i].key]
		shared := classShared[items[i].key]
		// Render per item: congruent items on different hosts each need
		// the shared plan's senders remapped into their own meshes.
		if bin {
			b = append(b, 0)
			b = enc.appendBinary(b, items[i].task, shared)
			continue
		}
		b = append(b, `{"plan":`...)
		b = enc.appendJSON(b, items[i].task, shared)
		b = append(b, '}')
	}
	if !bin {
		b = append(b, `],"distinct":`...)
		b = strconv.AppendInt(b, int64(len(order)), 10)
		b = append(b, `,"coalesced":`...)
		b = strconv.AppendInt(b, int64(coalesced), 10)
		b = append(b, '}', '\n')
	}
	*buf = b
	c.ok.Add(1)
	if bin {
		writeBinary(w, http.StatusOK, b)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	}
	putBuf(buf)
}
