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
	"strings"
	"time"

	"sptc/internal/resilience"
)

// Client executes compile and simulate requests: in-process (Local) or
// against a running sptd daemon (Remote). The front-ends render from the
// wire responses in both modes, so the printed bytes are identical by
// construction.
type Client interface {
	Compile(req *CompileRequest) (*CompileResponse, error)
	Simulate(req *SimulateRequest) (*SimulateResponse, error)
}

// Local executes requests in-process through the same executor the
// daemon's workers run. An optional Cache adds the daemon's
// content-addressed response caching (used by the equivalence tests; the
// one-shot CLIs run uncached).
type Local struct {
	Env   Env
	Cache *Cache
}

// Compile implements Client.
func (l *Local) Compile(req *CompileRequest) (*CompileResponse, error) {
	return serveLocal(l, req, CompileKey, ExecCompile)
}

// Simulate implements Client.
func (l *Local) Simulate(req *SimulateRequest) (*SimulateResponse, error) {
	return serveLocal(l, req, SimulateKey, ExecSimulate)
}

// response is a pointer to a response type: its out-of-band meta, and
// whether a cache may keep it (a degraded compile is not kept).
type response[R any] interface {
	*R
	meta() *RespMeta
	cacheable() bool
}

func (r *CompileResponse) meta() *RespMeta  { return &r.Meta }
func (r *CompileResponse) cacheable() bool  { return !r.Degraded }
func (r *SimulateResponse) meta() *RespMeta { return &r.Meta }
func (r *SimulateResponse) cacheable() bool { return !r.Compile.Degraded }

// serveLocal executes req in l's environment, through l's cache when it
// has one: the response is then decoded from the cached bytes, and its
// meta carries this call's execution durations (zero on a hit) and the
// cache disposition.
func serveLocal[Q any, R any, P response[R]](l *Local, req Q, key func(Q) CacheKey, exec func(Q, Env) (P, error)) (P, error) {
	if l.Cache == nil {
		return exec(req, l.Env)
	}
	var meta RespMeta
	data, disp, err := l.Cache.GetOrCompute(key(req), func() ([]byte, bool, error) {
		resp, err := exec(req, l.Env)
		if err != nil {
			return nil, false, err
		}
		meta = *resp.meta()
		b, merr := json.Marshal(resp)
		if merr != nil {
			return nil, false, merr
		}
		return b, resp.cacheable(), nil
	})
	if err != nil {
		return nil, err
	}
	resp := P(new(R))
	if err := json.Unmarshal(data, resp); err != nil {
		return nil, err
	}
	*resp.meta() = meta
	resp.meta().Cache = disp
	return resp, nil
}

// errorBody is the daemon's error response shape.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Error kinds on the wire.
const (
	errKindRequest  = "request"
	errKindCompile  = "compile"
	errKindPanic    = "panic"
	errKindTimeout  = "timeout"
	errKindCanceled = "canceled"
	errKindOverload = "overload"
	errKindInternal = "internal"
)

// ErrOverload reports an admission-control rejection (HTTP 429): the
// daemon's queue was full. Clients may retry after RetryAfter.
type ErrOverload struct {
	Msg string
	// RetryAfter is the daemon's backoff hint (the Retry-After header,
	// derived from queue depth x recent mean service time; 0 when the
	// header was absent).
	RetryAfter time.Duration
}

func (e *ErrOverload) Error() string { return e.Msg }

// TransportError is an error response that did not come from the daemon
// itself: a proxy or load balancer in front of sptd answering with HTML,
// plain text, or an empty body. It carries the status code and a
// truncated body snippet instead of a confusing JSON decode error.
type TransportError struct {
	Status     int
	Snippet    string // first transportSnippetLen bytes of the body
	RetryAfter time.Duration
}

// transportSnippetLen bounds the body excerpt a TransportError carries.
const transportSnippetLen = 128

func (e *TransportError) Error() string {
	if e.Snippet == "" {
		return fmt.Sprintf("sptd: HTTP %d (empty non-JSON body)", e.Status)
	}
	return fmt.Sprintf("sptd: HTTP %d: %s", e.Status, e.Snippet)
}

// Remote executes requests against a running sptd daemon.
type Remote struct {
	// URL is the daemon base URL, e.g. "http://localhost:8347".
	URL string
	// HTTPClient overrides http.DefaultClient (tests, timeouts).
	HTTPClient *http.Client
	// Context cancels in-flight requests. Nil means context.Background().
	Context context.Context
	// Retry, when non-nil, retries transient failures (overload, server
	// timeout, connection refused/reset) with bounded exponential
	// backoff. Nil disables retries (single attempt).
	Retry *RetryPolicy
}

func (r *Remote) client() *http.Client {
	if r.HTTPClient != nil {
		return r.HTTPClient
	}
	return http.DefaultClient
}

func (r *Remote) ctx() context.Context {
	if r.Context != nil {
		return r.Context
	}
	return context.Background()
}

// post runs one request, retrying transient failures under the Retry
// policy. meta.Retries reports the failed attempts that preceded the
// returned outcome, successful or not.
func (r *Remote) post(path string, reqBody any, respBody any) (RespMeta, error) {
	var meta RespMeta
	b, err := json.Marshal(reqBody)
	if err != nil {
		return meta, err
	}
	ctx := r.ctx()
	url := strings.TrimRight(r.URL, "/") + path
	var lastErr error
	for attempt := 0; ; attempt++ {
		meta, lastErr = r.postOnce(ctx, url, b, respBody)
		meta.Retries = attempt
		if lastErr == nil || !r.Retry.shouldRetry(ctx, attempt, lastErr) {
			return meta, wrapRetries(lastErr, attempt)
		}
		if err := r.Retry.backoff(ctx, attempt, lastErr); err != nil {
			// The caller's deadline expires before the backoff would end:
			// surface the transient error now instead of sleeping past it.
			return meta, wrapRetries(lastErr, attempt)
		}
	}
}

// retriedError transparently annotates a final error with the failed
// attempts behind it, so a Failover can account retries even when the
// response (and its RespMeta) was lost to the error path.
type retriedError struct {
	error
	retries int
}

func (e *retriedError) Unwrap() error { return e.error }

func wrapRetries(err error, retries int) error {
	if err == nil || retries == 0 {
		return err
	}
	return &retriedError{err, retries}
}

// ErrorRetries reports the failed attempts recorded in err's chain by a
// retrying Remote (0 for nil or unannotated errors).
func ErrorRetries(err error) int {
	var re *retriedError
	if errors.As(err, &re) {
		return re.retries
	}
	return 0
}

func (r *Remote) postOnce(ctx context.Context, url string, body []byte, respBody any) (RespMeta, error) {
	var meta RespMeta
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return meta, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := r.client().Do(hreq)
	if err != nil {
		return meta, fmt.Errorf("sptd: %w", err)
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(hresp.Body)
	if err != nil {
		return meta, fmt.Errorf("sptd: read response: %w", err)
	}
	meta.Cache = hresp.Header.Get("X-Sptd-Cache")
	meta.Compile = headerDur(hresp.Header, "X-Sptd-Compile-Us")
	meta.Simulate = headerDur(hresp.Header, "X-Sptd-Simulate-Us")
	if hresp.StatusCode != http.StatusOK {
		return meta, remoteError(hresp.StatusCode, hresp.Header, data)
	}
	return meta, json.Unmarshal(data, respBody)
}

func headerDur(h http.Header, key string) time.Duration {
	us, err := strconv.ParseInt(h.Get(key), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(us) * time.Microsecond
}

// retryAfterHeader parses a Retry-After header in delay-seconds form (0
// when absent or unparseable; the HTTP-date form is not produced by sptd
// and is ignored).
func retryAfterHeader(h http.Header) time.Duration {
	secs, err := strconv.ParseInt(strings.TrimSpace(h.Get("Retry-After")), 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// remoteError maps the daemon's error kinds back to the error types the
// callers' fail-soft classification (resilience.ReasonFor) understands,
// so a remote panic or timeout degrades a harness job exactly like a
// local one. A body that is not the daemon's JSON error shape (a proxy
// or LB answering for it) maps to a typed TransportError instead of a
// decode error.
func remoteError(status int, h http.Header, data []byte) error {
	var eb errorBody
	if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
		snippet := strings.TrimSpace(string(data))
		if len(snippet) > transportSnippetLen {
			snippet = snippet[:transportSnippetLen]
		}
		return &TransportError{Status: status, Snippet: snippet, RetryAfter: retryAfterHeader(h)}
	}
	switch eb.Kind {
	case errKindRequest:
		return &RequestError{Msg: eb.Error}
	case errKindPanic:
		return &resilience.PanicError{Value: eb.Error}
	case errKindTimeout:
		return fmt.Errorf("sptd: %s: %w", eb.Error, context.DeadlineExceeded)
	case errKindCanceled:
		return fmt.Errorf("sptd: %s: %w", eb.Error, context.Canceled)
	case errKindOverload:
		return &ErrOverload{Msg: eb.Error, RetryAfter: retryAfterHeader(h)}
	default:
		return fmt.Errorf("sptd: %s", eb.Error)
	}
}

// Compile implements Client.
func (r *Remote) Compile(req *CompileRequest) (*CompileResponse, error) {
	resp := new(CompileResponse)
	meta, err := r.post("/v1/compile", req, resp)
	if err != nil {
		return nil, err
	}
	resp.Meta = meta
	return resp, nil
}

// Simulate implements Client.
func (r *Remote) Simulate(req *SimulateRequest) (*SimulateResponse, error) {
	resp := new(SimulateResponse)
	meta, err := r.post("/v1/simulate", req, resp)
	if err != nil {
		return nil, err
	}
	resp.Meta = meta
	return resp, nil
}
