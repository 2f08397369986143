package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// OverloadedError is returned when the server rejected a request with 429;
// RetryAfter carries the server's backoff hint.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: server overloaded, retry after %v", e.RetryAfter)
}

// APIError is a non-429 error response from the server. Code and
// Retryable come from the structured envelope; they stay empty only when
// the body was not one (an intermediary's error page, say).
type APIError struct {
	StatusCode int
	Message    string
	Code       string
	Retryable  bool
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: %d %s: %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("service: %d: %s", e.StatusCode, e.Message)
}

// Client talks to a plan server. Safe for concurrent use; a zero
// http.Client limit would throttle closed-loop load generators, so the
// default transport keeps enough idle connections for large client counts.
type Client struct {
	base string
	hc   *http.Client
	// binary negotiates the binary wire format; see WithBinary.
	binary bool
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithBinary makes the client negotiate the binary wire format
// (ContentTypeBinary) on every request via the Accept header. The server
// answers — error envelopes included — with binary frames, which the
// client decodes into the same response structs the JSON path fills.
// Servers that predate the binary format ignore the Accept header and keep
// answering JSON, which the client still decodes, so the option is safe
// against old servers.
func WithBinary() ClientOption {
	return func(c *Client) { c.binary = true }
}

// NewClient builds a client for a base URL like "http://127.0.0.1:8100".
// httpClient nil means a dedicated client whose transport tolerates
// hundreds of concurrent connections to one host.
func NewClient(baseURL string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		// DefaultTransport may have been replaced by the embedding
		// program with an arbitrary RoundTripper; fall back to a fresh
		// transport rather than panicking on the assertion.
		tr, ok := http.DefaultTransport.(*http.Transport)
		if ok {
			tr = tr.Clone()
		} else {
			tr = &http.Transport{}
		}
		tr.MaxIdleConns = 512
		tr.MaxIdleConnsPerHost = 512
		httpClient = &http.Client{Transport: tr}
	}
	c := &Client{base: baseURL, hc: httpClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// PlanV2 requests one resharding plan. When ctx carries a deadline, the
// remaining budget is propagated to the server via X-Timeout-Ms so the
// server-side queue wait and search are bounded by it too.
//
// The request is rendered and a JSON response parsed by hand (jsonwire.go),
// to the bytes and values encoding/json would give.
func (c *Client) PlanV2(ctx context.Context, req *PlanRequest) (*PlanResponse, error) {
	// The request body must stay alive for the whole round trip, so the
	// buffer is returned only afterwards.
	buf := getBuf()
	defer putBuf(buf)
	body, err := appendPlanRequestJSON((*buf)[:0], req)
	if err != nil {
		return nil, err
	}
	*buf = body
	var resp PlanResponse
	if err := c.postBody(ctx, "/v2/plan", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// AutotuneV2 requests a strategy x scheduler grid search; a ctx deadline
// aborts the queued or running search server-side.
func (c *Client) AutotuneV2(ctx context.Context, req *AutotuneRequest) (*AutotuneResponse, error) {
	var resp AutotuneResponse
	if err := c.post(ctx, "/v2/autotune", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PlanBatch plans every boundary of the batch in one request; congruent
// items cost one server-side computation total.
func (c *Client) PlanBatch(ctx context.Context, req *BatchPlanRequest) (*BatchPlanResponse, error) {
	var resp BatchPlanResponse
	if err := c.post(ctx, "/v2/plan:batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's cache and admission counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/stats", nil)
	if err != nil {
		return nil, err
	}
	var resp StatsResponse
	if err := c.roundTrip(req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) post(ctx context.Context, path string, payload, out interface{}) error {
	// Marshal into a pooled buffer: the request body must stay alive for
	// the whole round trip, so the buffer is returned only afterwards.
	je := getEncoder()
	defer putEncoder(je)
	if err := je.enc.Encode(payload); err != nil {
		return err
	}
	return c.postBody(ctx, path, je.buf.Bytes(), out)
}

// postBody posts a rendered JSON body and decodes the answer into out.
func (c *Client) postBody(ctx context.Context, path string, body []byte, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.binary {
		req.Header.Set("Accept", ContentTypeBinary)
	}
	if deadline, ok := ctx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(TimeoutHeader, strconv.FormatInt(ms, 10))
		}
	}
	return c.roundTrip(req, out)
}

func (c *Client) roundTrip(req *http.Request, out interface{}) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		retry := time.Second
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			retry = time.Duration(v) * time.Second
		}
		return &OverloadedError{RetryAfter: retry}
	}
	binary := strings.HasPrefix(resp.Header.Get("Content-Type"), ContentTypeBinary)
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: resp.Status}
		if binary {
			// Binary errors are a complete error frame.
			if data, err := io.ReadAll(resp.Body); err == nil {
				if v, err := decodeBinary(data); err == nil {
					if ve, ok := v.(*V2Error); ok {
						apiErr.Message, apiErr.Code, apiErr.Retryable = ve.Message, ve.Code, ve.Retryable
					}
				}
			}
			return apiErr
		}
		var env V2ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err == nil && env.Error.Code != "" {
			apiErr.Message, apiErr.Code, apiErr.Retryable = env.Error.Message, env.Error.Code, env.Error.Retryable
		}
		return apiErr
	}
	if binary {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return decodeBinaryInto(data, out)
	}
	if p, ok := out.(*PlanResponse); ok {
		buf := getBuf()
		defer putBuf(buf)
		body := bytes.NewBuffer((*buf)[:0])
		_, err := body.ReadFrom(resp.Body)
		*buf = body.Bytes()
		if err != nil {
			return err
		}
		return parsePlanResponse(body.Bytes(), p)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeBinaryInto decodes one binary frame into the response struct the
// caller expects, rejecting kind mismatches (a plan frame answering an
// autotune request means a server bug, not a value).
func decodeBinaryInto(data []byte, out interface{}) error {
	v, err := decodeBinary(data)
	if err != nil {
		return err
	}
	switch dst := out.(type) {
	case *PlanResponse:
		if p, ok := v.(*PlanResponse); ok {
			*dst = *p
			return nil
		}
	case *AutotuneResponse:
		if a, ok := v.(*AutotuneResponse); ok {
			*dst = *a
			return nil
		}
	case *BatchPlanResponse:
		if b, ok := v.(*BatchPlanResponse); ok {
			*dst = *b
			return nil
		}
	}
	return fmt.Errorf("service: binary frame kind does not match expected %T", out)
}
