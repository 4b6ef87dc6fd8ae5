package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sptc/internal/resilience"
	"sptc/internal/splgen"
)

// startServer runs a daemon on a free port; the returned stop func
// cancels its context and returns Run's error (idempotent).
func startServer(t *testing.T, cfg Config) (*Server, func() error) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Run(ctx) }()
	var once sync.Once
	var runErr error
	stop := func() error {
		once.Do(func() {
			cancel()
			runErr = <-errCh
		})
		return runErr
	}
	t.Cleanup(func() { stop() })
	return srv, stop
}

func healthz(t *testing.T, srv *Server) {
	t.Helper()
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

// TestServerRejectsUnknownFields pins strict request decoding end to
// end: a body naming a field the API does not have (here a retired
// option) reaches a retrying Remote as a RequestError after one attempt,
// since a retry would re-buy the same rejection.
func TestServerRejectsUnknownFields(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1})
	var slept []time.Duration
	r := &Remote{URL: srv.URL(), Retry: testPolicy(5, &slept)}
	body := map[string]any{
		"name": "a.spl", "source": "func main() {}", "level": "best",
		"options": map[string]any{"counters_only": true},
	}
	meta, err := r.post("/v1/simulate", body, new(SimulateResponse))
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("error %T (%v), want *RequestError", err, err)
	}
	if meta.Retries != 0 || len(slept) != 0 {
		t.Errorf("retries = %d, slept %v; want none", meta.Retries, slept)
	}
}

// TestServerStampede fires N identical concurrent requests at a cold
// daemon: exactly one compile happens; every response is identical.
func TestServerStampede(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 8, QueueDepth: 256})
	src := splgen.Generate(42)
	req := &CompileRequest{Name: "stampede.spl", Source: src, Level: "best"}

	const n = 48
	responses := make([][]byte, n)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			remote := &Remote{URL: srv.URL()}
			resp, err := remote.Compile(req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			responses[i], _ = json.Marshal(resp)
		}(i)
	}
	close(gate)
	wg.Wait()

	m := srv.Snapshot()
	if m.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 compile for %d identical requests", m.CacheMisses, n)
	}
	if m.CacheHits+m.StampedeJoins != n-1 {
		t.Errorf("hits(%d) + joins(%d) = %d, want %d", m.CacheHits, m.StampedeJoins, m.CacheHits+m.StampedeJoins, n-1)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestServerGracefulShutdown cancels the daemon with a request in
// flight: the request drains to a 200, Run returns clean, and the cache
// file on disk is valid and complete.
func TestServerGracefulShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "svc.cache")
	srv, stop := startServer(t, Config{Workers: 2, CachePath: path})

	if err := resilience.ArmSpec("core.pass1.loop=delay:200ms"); err != nil {
		t.Fatal(err)
	}
	defer resilience.DisarmAll()

	type result struct {
		resp *CompileResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		remote := &Remote{URL: srv.URL()}
		resp, err := remote.Compile(&CompileRequest{Name: "drain.spl", Source: splgen.Generate(7), Level: "best"})
		done <- result{resp, err}
	}()
	time.Sleep(50 * time.Millisecond) // request is now in a worker, delayed by the injection

	if err := stop(); err != nil {
		t.Fatalf("Run returned %v on graceful shutdown", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request was dropped during shutdown: %v", r.err)
	}

	resilience.DisarmAll()
	// The drained request's response was cached and persisted: a fresh
	// cache sees a clean, complete file.
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Salvaged() {
		t.Error("cache file damaged by shutdown")
	}
	if c.Len() != 1 {
		t.Errorf("cache has %d entries after shutdown, want 1", c.Len())
	}
}

// TestServerOverload saturates a 1-worker, depth-1 daemon: excess
// requests are rejected with 429/ErrOverload instead of queueing, and
// the daemon keeps serving afterwards.
func TestServerOverload(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1, QueueDepth: 1})
	if err := resilience.ArmSpec("core.pass1.loop=delay:300ms"); err != nil {
		t.Fatal(err)
	}
	defer resilience.DisarmAll()

	// Occupy the worker, then the queue slot.
	var wg sync.WaitGroup
	fire := func(i int) chan error {
		ch := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			remote := &Remote{URL: srv.URL()}
			_, err := remote.Compile(&CompileRequest{
				Name: fmt.Sprintf("load%d.spl", i), Source: splgen.Generate(int64(100 + i)), Level: "basic",
			})
			ch <- err
		}()
		return ch
	}
	first := fire(0)
	time.Sleep(100 * time.Millisecond)

	var chans []chan error
	for i := 1; i <= 8; i++ {
		chans = append(chans, fire(i))
	}
	wg.Wait()

	if err := <-first; err != nil {
		t.Errorf("first request failed: %v", err)
	}
	overloads := 0
	for i, ch := range chans {
		if err := <-ch; err != nil {
			var over *ErrOverload
			if !errors.As(err, &over) {
				t.Errorf("burst request %d: %v, want ErrOverload or success", i+1, err)
				continue
			}
			// Satellite contract: every 429 carries a Retry-After backoff
			// hint derived from queue depth x mean service time, floored
			// at one second.
			if over.RetryAfter < time.Second {
				t.Errorf("burst request %d: Retry-After = %v, want >= 1s", i+1, over.RetryAfter)
			}
			overloads++
		}
	}
	if overloads == 0 {
		t.Error("no request was rejected with 429 despite queue depth 1")
	}
	if m := srv.Snapshot(); m.QueueRejects != int64(overloads) {
		t.Errorf("queue_rejects = %d, want %d", m.QueueRejects, overloads)
	}

	resilience.DisarmAll()
	healthz(t, srv)
	remote := &Remote{URL: srv.URL()}
	if _, err := remote.Compile(&CompileRequest{Name: "after.spl", Source: splgen.Generate(200), Level: "basic"}); err != nil {
		t.Errorf("daemon unhealthy after overload: %v", err)
	}
}

// TestServerFaultInjection arms every registered injection point in turn
// against a running daemon: the affected request degrades or errors, the
// daemon stays healthy before and after, and a clean request still
// round-trips.
func TestServerFaultInjection(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 2})
	remote := &Remote{URL: srv.URL()}

	points := resilience.Points()
	if len(points) == 0 {
		t.Fatal("no registered injection points")
	}

	// Pick a source whose clean best-level compile selects at least one
	// SPT loop, so the per-loop pass-2 points actually fire.
	var src string
	for seed := int64(300); ; seed++ {
		if seed > 340 {
			t.Fatal("no generator seed in range selects an SPT loop")
		}
		s := splgen.Generate(seed)
		resp, err := ExecCompile(&CompileRequest{Name: "probe.spl", Source: s, Level: "best"}, Env{})
		if err == nil && resp.SPTCount > 0 {
			src = s
			break
		}
	}

	// Durability-path points (log flush/compaction, cache save) fire on
	// the daemon's persistence schedule, not on the request path: arming
	// them must leave request results untouched. Their failure semantics
	// are pinned by the dedicated incr/cache/crashtest suites.
	ioPoints := map[string]bool{
		"incr.log.flush":     true,
		"incr.log.rename":    true,
		"service.cache.save": true,
	}

	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			if ioPoints[point] {
				healthz(t, srv)
				if err := resilience.ArmSpec(point + "=error"); err != nil {
					t.Fatal(err)
				}
				defer resilience.DisarmAll()
				req := &SimulateRequest{
					Name:   fmt.Sprintf("fault-%s.spl", point),
					Source: src,
					Level:  "best",
				}
				resp, err := remote.Simulate(req)
				if err != nil {
					t.Fatalf("point %s: durability fault leaked into the request path: %v", point, err)
				}
				if resp.Compile.Degraded {
					t.Errorf("point %s: durability fault degraded a request", point)
				}
				resilience.DisarmAll()
				healthz(t, srv)
				return
			}
			healthz(t, srv)
			if err := resilience.ArmSpec(point + "=panic"); err != nil {
				t.Fatal(err)
			}
			defer resilience.DisarmAll()

			// The point name is folded into the request name so every
			// subtest starts cold in the daemon's cache.
			req := &SimulateRequest{
				Name:   fmt.Sprintf("fault-%s.spl", point),
				Source: src,
				Level:  "best",
			}
			resp, err := remote.Simulate(req)
			switch {
			case err != nil:
				// A hard failure (e.g. the simulator's guard) must come back
				// as a classified error, never a daemon crash.
				var perr *resilience.PanicError
				if !errors.As(err, &perr) {
					t.Logf("point %s: non-panic error shape: %v", point, err)
				}
			case resp.Compile.Degraded:
				// The compiler absorbed the fault fail-soft.
			default:
				t.Errorf("point %s: request neither degraded nor errored", point)
			}
			resilience.DisarmAll()
			healthz(t, srv)

			// The poisoned response must not have been cached: the same
			// request now succeeds cleanly.
			clean, err := remote.Simulate(req)
			if err != nil {
				t.Fatalf("point %s: clean retry failed: %v", point, err)
			}
			if clean.Compile.Degraded {
				t.Errorf("point %s: degraded response was served after disarm (cached poison)", point)
			}
			if clean.Meta.Cache == DispHit {
				t.Errorf("point %s: poisoned response was cached", point)
			}
		})
	}
}

// TestServerReqTimeout pins the 504 path: a request stalled past
// -req-timeout answers 504/timeout while the daemon survives, and the
// loop-level incr machinery stays active (the timeout is a cancellation,
// not a context deadline).
func TestServerReqTimeout(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1, ReqTimeout: 50 * time.Millisecond})
	if err := resilience.ArmSpec("core.pass1.loop=delay:400ms"); err != nil {
		t.Fatal(err)
	}
	defer resilience.DisarmAll()

	remote := &Remote{URL: srv.URL()}
	_, err := remote.Compile(&CompileRequest{Name: "slow.spl", Source: splgen.Generate(9), Level: "best"})
	if err == nil {
		t.Fatal("stalled request did not error")
	}
	if !isTimeout(err) {
		t.Errorf("stalled request error = %v, want a deadline-classified error", err)
	}
	if m := srv.Snapshot(); m.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Timeouts)
	}

	resilience.DisarmAll()
	healthz(t, srv)
	if _, err := remote.Compile(&CompileRequest{Name: "fast.spl", Source: splgen.Generate(10), Level: "best"}); err != nil {
		t.Errorf("daemon unhealthy after timeout: %v", err)
	}
}

func isTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
