package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sptc/internal/incr"
	"sptc/internal/machine"
	"sptc/internal/resilience"
	"sptc/internal/trace"
)

// Config parameterizes the daemon.
type Config struct {
	// Addr is the listen address (":8347" by default; ":0" picks a free
	// port, readable from Server.Addr after Start).
	Addr string
	// QueueDepth bounds the admission queue: a request arriving with
	// QueueDepth tasks already waiting is rejected with HTTP 429 instead
	// of queueing unboundedly (default 256).
	QueueDepth int
	// Workers bounds concurrent request execution (default NumCPU). Each
	// worker owns one pooled simulation engine.
	Workers int
	// ReqTimeout bounds one request's execution wall clock; an expired
	// request answers 504 while the daemon keeps serving (default 0:
	// unbounded). Implemented by cancellation without a context deadline,
	// so the loop-level incr store stays active under it.
	ReqTimeout time.Duration
	// CachePath persists the whole-program response cache across
	// restarts (empty: in-memory only).
	CachePath string
	// IncrPath persists the loop-level incremental store active
	// underneath the response cache (empty: disabled).
	IncrPath string
	// MaxSource caps the request body size in bytes (default 4 MiB).
	MaxSource int64
	// SearchWorkers parallelizes pass 1 inside each request
	// (result-invariant; default 0 = serial, concurrency comes from the
	// worker pool).
	SearchWorkers int
	// TraceTracks caps the rotating /debug/trace buffer: after this many
	// request tracks the tracer is swapped fresh (default 64).
	TraceTracks int
	// DrainTimeout bounds the graceful-shutdown drain of in-flight
	// requests (default 30s).
	DrainTimeout time.Duration
	// FlushInterval periodically appends both persistent stores' pending
	// records to disk (no compaction), so a hard kill (SIGKILL, OOM,
	// power loss) loses at most one flush window of results instead of
	// everything since startup. 0 disables periodic flushing (graceful
	// shutdown still saves).
	FlushInterval time.Duration
	// FlushEveryN additionally triggers a flush after every Nth cache
	// miss, bounding loss under miss-heavy load independently of the
	// ticker. 0 disables the miss-count trigger.
	FlushEveryN int
	// FlushSync fsyncs after every flush append, extending the
	// durability guarantee from process death to power loss.
	FlushSync bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8347"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxSource <= 0 {
		c.MaxSource = 4 << 20
	}
	if c.TraceTracks <= 0 {
		c.TraceTracks = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Metrics is the /metrics snapshot: admission and outcome counters plus
// cumulative work sums read back from the per-request internal/trace
// spans.
type Metrics struct {
	Requests      int64 `json:"requests"`
	InFlight      int64 `json:"in_flight"`
	QueueRejects  int64 `json:"queue_rejects"`
	Compiles      int64 `json:"compiles"`
	Simulates     int64 `json:"simulates"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	StampedeJoins int64 `json:"stampede_joins"`
	Degraded      int64 `json:"degraded"`
	Errors        int64 `json:"errors"`
	Timeouts      int64 `json:"timeouts"`
	Panics        int64 `json:"panics"`
	SearchNodes   int64 `json:"search_nodes"`
	SimOps        int64 `json:"sim_ops"`
	CacheEntries  int64 `json:"cache_entries"`
	IncrEntries   int64 `json:"incr_entries"`
	// Flushes counts completed durability flushes of the persistent
	// stores (every entry cached before flush N is on disk when the
	// counter reads N); FlushErrors counts failed flush attempts (the
	// next graceful save compacts and recovers).
	Flushes     int64 `json:"flushes"`
	FlushErrors int64 `json:"flush_errors"`
	// MeanServiceUs is the exponentially-weighted mean execution time of
	// recent requests, the base of the 429 Retry-After estimate.
	MeanServiceUs int64 `json:"mean_service_us"`
}

type counters struct {
	requests, inFlight, queueRejects      atomic.Int64
	compiles, simulates                   atomic.Int64
	cacheHits, cacheMisses, stampedeJoins atomic.Int64
	degraded, errorsN, timeouts, panics   atomic.Int64
	searchNodes, simOps                   atomic.Int64
	flushes, flushErrors                  atomic.Int64
	meanSvcUs                             atomic.Int64 // EWMA, microseconds
	missSinceFlush                        atomic.Int64
}

// Server is the sptd daemon.
type Server struct {
	cfg   Config
	cache *Cache
	store *incr.Store
	mux   *http.ServeMux
	hs    *http.Server
	ln    net.Listener
	tasks chan *task
	wg    sync.WaitGroup
	ctr   counters
	seq   atomic.Int64

	traceMu sync.Mutex
	tracer  *trace.Tracer
	tracks  int

	baseCtx    context.Context
	baseCancel context.CancelFunc

	flushKick chan struct{}
	flushStop chan struct{}
	flushDone chan struct{}
}

type task struct {
	kind byte
	creq *CompileRequest
	sreq *SimulateRequest
	done chan taskResult
}

type taskResult struct {
	status int
	body   []byte
	disp   string
	meta   RespMeta
}

// NewServer builds a daemon, loading (or creating) its persistent
// caches. Corrupt cache files are salvaged fail-soft by the record log;
// only real I/O errors surface.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, tracer: trace.New()}
	if cfg.CachePath != "" {
		c, err := OpenCache(cfg.CachePath)
		if err != nil {
			return nil, fmt.Errorf("open response cache %s: %w", cfg.CachePath, err)
		}
		s.cache = c
	} else {
		s.cache = NewCache()
	}
	if cfg.IncrPath != "" {
		st, err := incr.Open(cfg.IncrPath)
		if err != nil {
			return nil, fmt.Errorf("open incr store %s: %w", cfg.IncrPath, err)
		}
		s.store = st
	}
	if cfg.FlushSync {
		s.cache.SetSync(incr.SyncFlush)
		if s.store != nil {
			s.store.SetSync(incr.SyncFlush)
		}
	}
	s.flushKick = make(chan struct{}, 1)
	s.tasks = make(chan *task, cfg.QueueDepth)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/compile", s.handleCompile)
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.hs = &http.Server{Handler: s.mux}
	return s, nil
}

// Cache exposes the response cache (tests, metrics).
func (s *Server) Cache() *Cache { return s.cache }

// Start binds the listener and launches the worker pool. Serving begins
// in the background; Run (or Wait on the returned listener) completes
// the lifecycle.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.FlushInterval > 0 || s.cfg.FlushEveryN > 0 {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return nil
}

// flusher is the durability loop: it flushes both persistent stores on
// the -flush-interval ticker and whenever the miss counter kicks it, so
// a hard kill loses at most one flush window.
func (s *Server) flusher() {
	defer close(s.flushDone)
	var tick <-chan time.Time
	if s.cfg.FlushInterval > 0 {
		t := time.NewTicker(s.cfg.FlushInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
		case <-s.flushKick:
		case <-s.flushStop:
			return
		}
		s.flushStores()
	}
}

// flushStores appends both stores' pending records to disk. The flush
// counter increments only after every store flushed cleanly, so readers
// of /metrics can rely on "flushes == N implies everything cached before
// flush N is durable". A failed flush is counted and survived: the log
// marks itself for a compacting rewrite on the next save.
func (s *Server) flushStores() {
	ok := true
	if err := s.cache.Flush(); err != nil {
		ok = false
	}
	if s.store != nil {
		if err := s.store.Flush(); err != nil {
			ok = false
		}
	}
	if ok {
		s.ctr.flushes.Add(1)
	} else {
		s.ctr.flushErrors.Add(1)
	}
}

// kickFlush requests an asynchronous flush (coalesced when one is
// already pending).
func (s *Server) kickFlush() {
	if s.flushStop == nil {
		return
	}
	select {
	case s.flushKick <- struct{}{}:
	default:
	}
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// URL returns the daemon base URL (after Start).
func (s *Server) URL() string { return "http://" + s.Addr() }

// Run serves until ctx is canceled, then shuts down gracefully: the
// listener closes, in-flight requests drain (bounded by DrainTimeout),
// the worker pool exits, and both persistent caches are saved. The
// returned error is nil on a clean shutdown.
func (s *Server) Run(ctx context.Context) error {
	if s.ln == nil {
		if err := s.Start(); err != nil {
			return err
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.hs.Serve(s.ln) }()

	var err error
	select {
	case err = <-serveErr:
		// Listener failure: tear down the pool and report.
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		if serr := s.hs.Shutdown(drainCtx); serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
			err = serr
		}
		cancel()
		<-serveErr
	}

	// All handlers have returned: no more enqueues. Drain the pool.
	close(s.tasks)
	s.wg.Wait()
	s.baseCancel()
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}

	if cerr := s.cache.Save(); cerr != nil && err == nil {
		err = fmt.Errorf("save response cache: %w", cerr)
	}
	if s.store != nil {
		if ierr := s.store.Save(); ierr != nil && err == nil {
			err = fmt.Errorf("save incr store: %w", ierr)
		}
	}
	return err
}

// newTrack allocates a request track on the rotating debug tracer.
func (s *Server) newTrack(label string) *trace.Track {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if s.tracks >= s.cfg.TraceTracks {
		s.tracer = trace.New()
		s.tracks = 0
	}
	s.tracks++
	return s.tracer.StartTrack(label)
}

func (s *Server) worker() {
	defer s.wg.Done()
	// Each worker owns one simulation engine: per-run machine state
	// (memory image, predictor tables, frame pools) is reused across the
	// requests it executes.
	eng := machine.NewEngine()
	for t := range s.tasks {
		t.done <- s.execute(t, eng)
	}
}

// execute runs one admitted task under the per-request resilience
// envelope: panic isolation, soft timeout by cancellation (no context
// deadline, so the incr store stays active), single-flight caching.
func (s *Server) execute(t *task, eng *machine.Engine) taskResult {
	s.ctr.inFlight.Add(1)
	defer s.ctr.inFlight.Add(-1)
	start := time.Now()
	defer func() { s.observeServiceTime(time.Since(start)) }()

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	var timedOut atomic.Bool
	if s.cfg.ReqTimeout > 0 {
		timer := time.AfterFunc(s.cfg.ReqTimeout, func() {
			timedOut.Store(true)
			cancel()
		})
		defer timer.Stop()
	}

	var (
		key   CacheKey
		label string
		run   func(env Env) (body []byte, cacheable bool, meta RespMeta, counters Counters, err error)
	)
	switch t.kind {
	case kindCompile:
		req := t.creq
		s.ctr.compiles.Add(1)
		key = CompileKey(req)
		label = fmt.Sprintf("%s/%s#%d", req.Name, req.Level, s.seq.Add(1))
		run = func(env Env) ([]byte, bool, RespMeta, Counters, error) {
			resp, err := ExecCompile(req, env)
			if err != nil {
				return nil, false, RespMeta{}, Counters{}, err
			}
			b, err := json.Marshal(resp)
			return b, !resp.Degraded, resp.Meta, resp.Counters, err
		}
	default:
		req := t.sreq
		s.ctr.simulates.Add(1)
		key = SimulateKey(req)
		label = fmt.Sprintf("%s/%s#%d", req.Name, req.Level, s.seq.Add(1))
		run = func(env Env) ([]byte, bool, RespMeta, Counters, error) {
			resp, err := ExecSimulate(req, env)
			if err != nil {
				return nil, false, RespMeta{}, Counters{}, err
			}
			b, err := json.Marshal(resp)
			return b, !resp.Compile.Degraded, resp.Meta, resp.Compile.Counters, err
		}
	}

	var meta RespMeta
	var degraded bool
	body, disp, err := s.cache.GetOrCompute(key, func() ([]byte, bool, error) {
		env := Env{
			Track:         s.newTrack(label),
			Incr:          s.store,
			SearchWorkers: s.cfg.SearchWorkers,
			Eng:           eng,
			Context:       ctx,
		}
		var (
			b         []byte
			cacheable bool
		)
		gerr := resilience.Guard(func() error {
			var rerr error
			var c Counters
			b, cacheable, meta, c, rerr = run(env)
			if rerr == nil {
				s.ctr.searchNodes.Add(c.SearchNodes)
				s.ctr.simOps.Add(c.SimOps)
			}
			return rerr
		})
		if gerr == nil && !cacheable {
			degraded = true
		}
		return b, cacheable, gerr
	})

	switch disp {
	case DispHit:
		s.ctr.cacheHits.Add(1)
	case DispMiss:
		s.ctr.cacheMisses.Add(1)
		if n := s.cfg.FlushEveryN; n > 0 && s.ctr.missSinceFlush.Add(1)%int64(n) == 0 {
			s.kickFlush()
		}
	case DispJoin:
		s.ctr.stampedeJoins.Add(1)
	}
	if err != nil {
		return s.errorResult(err, timedOut.Load(), disp)
	}
	if degraded {
		s.ctr.degraded.Add(1)
	}
	meta.Cache = disp
	return taskResult{status: http.StatusOK, body: body, disp: disp, meta: meta}
}

// errorResult classifies a request failure into (status, kind) and
// counts it. The daemon survives every shape: a poison request degrades
// its own response, never the process.
func (s *Server) errorResult(err error, timedOut bool, disp string) taskResult {
	s.ctr.errorsN.Add(1)
	status, kind := http.StatusInternalServerError, errKindInternal
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		status, kind = http.StatusBadRequest, errKindRequest
	case resilience.ReasonFor(err) == resilience.ReasonPanic:
		s.ctr.panics.Add(1)
		status, kind = http.StatusInternalServerError, errKindPanic
	case timedOut && (errors.Is(err, context.Canceled) || resilience.ReasonFor(err) == resilience.ReasonTimeout || resilience.ReasonFor(err) == resilience.ReasonCanceled):
		s.ctr.timeouts.Add(1)
		status, kind = http.StatusGatewayTimeout, errKindTimeout
	case resilience.ReasonFor(err) == resilience.ReasonTimeout:
		s.ctr.timeouts.Add(1)
		status, kind = http.StatusGatewayTimeout, errKindTimeout
	case resilience.ReasonFor(err) == resilience.ReasonCanceled:
		status, kind = http.StatusServiceUnavailable, errKindCanceled
	default:
		// Front-end failures (parse, sem, verify) are the request's
		// fault: 400 with the compiler's message.
		status, kind = http.StatusBadRequest, errKindCompile
	}
	body, _ := json.Marshal(errorBody{Error: err.Error(), Kind: kind})
	return taskResult{status: status, body: body, disp: disp}
}

// observeServiceTime folds one request's execution time into the EWMA
// the 429 Retry-After estimate is derived from (alpha = 1/8).
func (s *Server) observeServiceTime(d time.Duration) {
	us := d.Microseconds()
	for {
		old := s.ctr.meanSvcUs.Load()
		next := us
		if old > 0 {
			next = old + (us-old)/8
		}
		if s.ctr.meanSvcUs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates how long an overloaded client should back off:
// the time to drain a full queue at the recent mean service rate,
// floored at one second (the header's resolution) so clients never
// hammer a saturated daemon.
func (s *Server) retryAfter() time.Duration {
	mean := time.Duration(s.ctr.meanSvcUs.Load()) * time.Microsecond
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	d := mean * time.Duration(s.cfg.QueueDepth) / time.Duration(workers)
	if d < time.Second {
		d = time.Second
	}
	return d.Round(time.Second)
}

// admit enqueues a task or rejects it with 429 when the queue is full.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, t *task) {
	s.ctr.requests.Add(1)
	select {
	case s.tasks <- t:
	default:
		s.ctr.queueRejects.Add(1)
		ra := s.retryAfter()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(ra/time.Second)))
		writeJSONError(w, http.StatusTooManyRequests, errorBody{
			Error: fmt.Sprintf("queue full (%d deep): retry after %s", s.cfg.QueueDepth, ra),
			Kind:  errKindOverload,
		})
		return
	}
	select {
	case res := <-t.done:
		h := w.Header()
		h.Set("Content-Type", "application/json")
		if res.disp != "" {
			h.Set("X-Sptd-Cache", res.disp)
		}
		h.Set("X-Sptd-Compile-Us", fmt.Sprintf("%d", res.meta.Compile.Microseconds()))
		h.Set("X-Sptd-Simulate-Us", fmt.Sprintf("%d", res.meta.Simulate.Microseconds()))
		w.WriteHeader(res.status)
		w.Write(res.body)
	case <-r.Context().Done():
		// Client went away; the worker still completes (and caches) the
		// task via the buffered done channel.
		writeJSONError(w, http.StatusServiceUnavailable, errorBody{Error: "client canceled", Kind: errKindCanceled})
	}
}

func writeJSONError(w http.ResponseWriter, status int, eb errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(eb)
	w.Write(b)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required", Kind: errKindRequest})
		return false
	}
	// Unknown fields are rejected, not ignored: a misspelt or retired
	// option would otherwise compile silently as a default request.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxSource))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSONError(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error(), Kind: errKindRequest})
		return false
	}
	return true
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	req := new(CompileRequest)
	if !s.decode(w, r, req) {
		return
	}
	if _, err := parseLevel(req.Level); err != nil {
		writeJSONError(w, http.StatusBadRequest, errorBody{Error: err.Error(), Kind: errKindRequest})
		return
	}
	s.admit(w, r, &task{kind: kindCompile, creq: req, done: make(chan taskResult, 1)})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req := new(SimulateRequest)
	if !s.decode(w, r, req) {
		return
	}
	if _, err := parseLevel(req.Level); err != nil {
		writeJSONError(w, http.StatusBadRequest, errorBody{Error: err.Error(), Kind: errKindRequest})
		return
	}
	s.admit(w, r, &task{kind: kindSimulate, sreq: req, done: make(chan taskResult, 1)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Snapshot returns the current metrics.
func (s *Server) Snapshot() Metrics {
	m := Metrics{
		Requests:      s.ctr.requests.Load(),
		InFlight:      s.ctr.inFlight.Load(),
		QueueRejects:  s.ctr.queueRejects.Load(),
		Compiles:      s.ctr.compiles.Load(),
		Simulates:     s.ctr.simulates.Load(),
		CacheHits:     s.ctr.cacheHits.Load(),
		CacheMisses:   s.ctr.cacheMisses.Load(),
		StampedeJoins: s.ctr.stampedeJoins.Load(),
		Degraded:      s.ctr.degraded.Load(),
		Errors:        s.ctr.errorsN.Load(),
		Timeouts:      s.ctr.timeouts.Load(),
		Panics:        s.ctr.panics.Load(),
		SearchNodes:   s.ctr.searchNodes.Load(),
		SimOps:        s.ctr.simOps.Load(),
		CacheEntries:  int64(s.cache.Len()),
		Flushes:       s.ctr.flushes.Load(),
		FlushErrors:   s.ctr.flushErrors.Load(),
		MeanServiceUs: s.ctr.meanSvcUs.Load(),
	}
	if s.store != nil {
		m.IncrEntries = int64(s.store.Len())
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.traceMu.Lock()
	tr := s.tracer
	s.traceMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	tr.WriteChrome(w)
}
