package service

import (
	"context"
	"errors"
	"net/url"
	"sync"
	"time"
)

// Breaker is a small circuit breaker over the remote transport. Closed,
// it passes requests through. After Threshold consecutive transport
// failures (connection-level errors or proxy-class TransportErrors —
// never compile/request errors, which prove the daemon is alive) it
// opens: requests short-circuit for Cooldown, then exactly one probe is
// let through half-open. A probe success closes the breaker; a probe
// failure re-opens it for another cooldown.
type Breaker struct {
	// Threshold is the consecutive-transport-failure count that opens
	// the breaker (default 3 when zero).
	Threshold int
	// Cooldown is how long the breaker stays open before half-opening
	// (default 5s when zero).
	Cooldown time.Duration
	// Clock is a test seam; nil means time.Now.
	Clock func() time.Time

	mu       sync.Mutex
	failures int       // consecutive transport failures while closed
	openedAt time.Time // zero: closed
	probing  bool      // half-open probe in flight
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 3
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 5 * time.Second
	}
	return b.Cooldown
}

func (b *Breaker) now() time.Time {
	if b.Clock != nil {
		return b.Clock()
	}
	return time.Now()
}

// Allow reports whether a request may go to the remote. Open-state
// requests are refused until the cooldown elapses; then one caller wins
// the half-open probe slot and the rest keep short-circuiting until the
// probe reports back.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openedAt.IsZero() {
		return true
	}
	if b.probing || b.now().Sub(b.openedAt) < b.cooldown() {
		return false
	}
	b.probing = true
	return true
}

// Success reports a remote round-trip that proved the daemon reachable.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.openedAt = time.Time{}
	b.probing = false
}

// Failure reports a transport-level failure. It opens the breaker after
// Threshold consecutive failures, and re-opens it (fresh cooldown) when
// a half-open probe fails.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		b.probing = false
		b.openedAt = b.now()
		return
	}
	b.failures++
	if b.openedAt.IsZero() && b.failures >= b.threshold() {
		b.openedAt = b.now()
	}
}

// Open reports whether the breaker is currently refusing remote traffic.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openedAt.IsZero()
}

// TransportFailure reports whether err means "the daemon was
// unreachable" as opposed to "the daemon answered with an error". Only
// the former counts against the breaker and justifies local fallback:
// an answered error (compile failure, panic, even an overload 429 that
// retries couldn't outlast) proves the service is alive.
func TransportFailure(err error) bool {
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var te *TransportError
	return errors.As(err, &te)
}

// Failover is a self-healing client: requests go to Remote (whose own
// RetryPolicy masks transient faults), and when the daemon is
// unreachable — a transport failure survives the retries, or the
// breaker is already open — the request runs on the degraded in-process
// Local instead, marked with Meta.Fallback so status surfaces show it.
// The breaker half-opens after its cooldown, so a recovered daemon is
// picked back up automatically.
type Failover struct {
	Remote *Remote
	Local  *Local
	// Breaker tracks remote health; nil gets a default breaker.
	Breaker *Breaker

	once sync.Once
}

func (f *Failover) breaker() *Breaker {
	f.once.Do(func() {
		if f.Breaker == nil {
			f.Breaker = &Breaker{}
		}
	})
	return f.Breaker
}

// ForJob returns a Failover for one job of the evaluation harness: the
// Remote bound to ctx, so the job's deadline cancels the HTTP request,
// and local, the job's own environment, as the fallback. It shares this
// Failover's breaker, so remote health accrues across jobs.
func (f *Failover) ForJob(ctx context.Context, local *Local) *Failover {
	rc := *f.Remote
	rc.Context = ctx
	return &Failover{Remote: &rc, Local: local, Breaker: f.breaker()}
}

// Compile implements Client.
func (f *Failover) Compile(req *CompileRequest) (*CompileResponse, error) {
	b := f.breaker()
	if !b.Allow() {
		resp, err := f.Local.Compile(req)
		if resp != nil {
			resp.Meta.Fallback = true
		}
		return resp, err
	}
	resp, err := f.Remote.Compile(req)
	if err == nil || !TransportFailure(err) {
		b.Success()
		return resp, err
	}
	b.Failure()
	retries := ErrorRetries(err)
	lresp, lerr := f.Local.Compile(req)
	if lresp != nil {
		lresp.Meta.Fallback = true
		lresp.Meta.Retries = retries
	}
	return lresp, lerr
}

// Simulate implements Client.
func (f *Failover) Simulate(req *SimulateRequest) (*SimulateResponse, error) {
	b := f.breaker()
	if !b.Allow() {
		resp, err := f.Local.Simulate(req)
		if resp != nil {
			resp.Meta.Fallback = true
		}
		return resp, err
	}
	resp, err := f.Remote.Simulate(req)
	if err == nil || !TransportFailure(err) {
		b.Success()
		return resp, err
	}
	b.Failure()
	retries := ErrorRetries(err)
	lresp, lerr := f.Local.Simulate(req)
	if lresp != nil {
		lresp.Meta.Fallback = true
		lresp.Meta.Retries = retries
	}
	return lresp, lerr
}
