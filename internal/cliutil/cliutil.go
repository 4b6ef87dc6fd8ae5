// Package cliutil holds the observability plumbing shared by the sptc,
// sptsim and sptbench commands: starting and stopping pprof profiles and
// exporting a tracer to the Chrome trace_event and CSV formats.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"sptc/internal/core"
	"sptc/internal/incr"
	"sptc/internal/resilience"
	"sptc/internal/service"
	"sptc/internal/trace"
)

// Profiles manages the optional -cpuprofile/-memprofile outputs of a
// command. The zero value (from StartProfiles("", "")) is inert.
type Profiles struct {
	cpuFile *os.File
	memPath string
}

// StartProfiles begins CPU profiling into cpuPath (when non-empty) and
// remembers memPath for a heap profile at Stop. Either path may be empty.
func StartProfiles(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		p.cpuFile = f
	}
	return p, nil
}

// Stop finishes the CPU profile and writes the heap profile, if either
// was requested. Safe to call on a nil receiver and idempotent for the
// CPU side.
func (p *Profiles) Stop() error {
	if p == nil {
		return nil
	}
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			first = err
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		runtime.GC() // flush recently freed objects out of the profile
		if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
			first = fmt.Errorf("write heap profile: %w", err)
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		p.memPath = ""
	}
	return first
}

// ExportTrace writes the tracer to jsonPath (Chrome trace_event format,
// loadable in chrome://tracing or ui.perfetto.dev) and/or csvPath (flat
// per-span CSV). Empty paths are skipped.
func ExportTrace(tr *trace.Tracer, jsonPath, csvPath string) error {
	write := func(path string, emit func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(jsonPath, func(f *os.File) error { return tr.WriteChrome(f) }); err != nil {
		return err
	}
	return write(csvPath, func(f *os.File) error { return tr.WriteCSV(f) })
}

// Resilience bundles the fail-soft flags shared by the sptc, sptsim and
// sptbench commands: a wall-clock budget, a partition-search node
// budget, and a fault-injection spec.
type Resilience struct {
	// Timeout is the wall-clock budget (per job in sptbench, for the
	// whole compile+simulate in sptc/sptsim). 0 disables it.
	Timeout time.Duration
	// SearchBudget caps the partition search at this many nodes per loop
	// candidate; the anytime search keeps the best partition found.
	// <= 0 leaves the search unbounded.
	SearchBudget int
	// SearchWorkers parallelizes pass 1: candidate loops are analyzed
	// concurrently and each loop's partition search runs its parallel
	// branch-and-bound with this many workers. The compilation result is
	// identical for every value (see core.Options.SearchWorkers). 0
	// keeps the classic serial pass 1.
	SearchWorkers int
	// Inject is a resilience.ArmSpec fault-injection spec
	// ("point=panic|delay:DUR|error|exhaust", comma-separated).
	Inject string
}

// AddResilienceFlags registers -timeout, -search-budget, -search-workers
// and -inject on fs and returns the bundle their values land in.
func AddResilienceFlags(fs *flag.FlagSet) *Resilience {
	r := &Resilience{}
	fs.DurationVar(&r.Timeout, "timeout", 0, "wall-clock budget per compile+simulate job (0 = unlimited)")
	fs.IntVar(&r.SearchBudget, "search-budget", 0, "partition-search node budget per loop candidate (0 = unlimited)")
	fs.IntVar(&r.SearchWorkers, "search-workers", 0, "parallel pass-1/partition-search workers; result is identical for every value (0 = serial)")
	fs.StringVar(&r.Inject, "inject", "", "arm fault-injection points: `point=panic|delay:DUR|error|exhaust[,...]`")
	return r
}

// Arm arms the -inject spec (a no-op when empty).
func (r *Resilience) Arm() error {
	if r.Inject == "" {
		return nil
	}
	return resilience.ArmSpec(r.Inject)
}

// Context returns a context bounded by -timeout; the cancel func must
// always be called. With no timeout it returns context.Background().
func (r *Resilience) Context() (context.Context, context.CancelFunc) {
	if r.Timeout > 0 {
		return context.WithTimeout(context.Background(), r.Timeout)
	}
	return context.Background(), func() {}
}

// Incr carries the -incr-cache flag value.
type Incr struct {
	// Path is the loop-result store file; empty disables incremental
	// compilation.
	Path string
}

// AddIncrFlag registers -incr-cache on fs.
func AddIncrFlag(fs *flag.FlagSet) *Incr {
	i := &Incr{}
	fs.StringVar(&i.Path, "incr-cache", "", "loop-result store `file` for incremental recompilation (empty = off)")
	return i
}

// Open opens the loop-result store named by -incr-cache and returns it
// with a closer that persists it. The open is fail-soft in the
// incremental-compilation contract's sense: a corrupt or truncated store
// is salvaged by incr.Open itself, and an unreadable one (I/O error)
// degrades to a cold compile with a warning on stderr — a damaged cache
// never fails the build. With no path it returns (nil, no-op closer).
func (i *Incr) Open() (*incr.Store, func()) {
	if i.Path == "" {
		return nil, func() {}
	}
	store, err := incr.Open(i.Path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: -incr-cache %s unreadable (%v): compiling cold\n", i.Path, err)
		return nil, func() {}
	}
	return store, func() {
		if err := store.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: -incr-cache %s not saved: %v\n", i.Path, err)
		}
	}
}

// Server bundles the daemon-client flags shared by the sptc, sptsim and
// sptbench commands: the daemon URL plus the self-healing knobs (retry
// attempts and local fallback).
type Server struct {
	// URL is the sptd base URL; empty means in-process execution.
	URL string
	// Retries is the total remote attempts per request (transient
	// failures only: overload, server timeout, connection refused/reset).
	// <= 1 disables retries.
	Retries int
	// Fallback degrades to in-process execution when the daemon stays
	// unreachable after retries (circuit breaker; see service.Failover).
	Fallback bool
}

// AddServerFlags registers -server, -server-retries and
// -server-fallback on fs. When -server is set the command executes
// through the daemon's HTTP API (with its persistent response cache)
// instead of in-process; the printed output is byte-identical either
// way because both modes render from the same wire response.
func AddServerFlags(fs *flag.FlagSet) *Server {
	s := &Server{}
	fs.StringVar(&s.URL, "server", "", "execute via the sptd daemon at `URL` (e.g. http://localhost:8347) instead of in-process")
	fs.IntVar(&s.Retries, "server-retries", 4, "total remote attempts per request for transient daemon failures (<=1 disables retries)")
	fs.BoolVar(&s.Fallback, "server-fallback", true, "fall back to in-process execution when the daemon is unreachable after retries")
	return s
}

// Remote reports whether the command runs against a daemon.
func (s *Server) Remote() bool { return s.URL != "" }

// Client builds the daemon client: a retrying service.Remote, wrapped in
// a circuit-breaking service.Failover over env when -server-fallback is
// on. env is the in-process environment a fallback runs with (ignored
// when fallback is off).
func (s *Server) Client(ctx context.Context, env service.Env) service.Client {
	r := &service.Remote{URL: s.URL, Context: ctx}
	if s.Retries > 1 {
		p := service.DefaultRetryPolicy()
		p.MaxAttempts = s.Retries
		r.Retry = p
	}
	if !s.Fallback {
		return r
	}
	env.Context = ctx
	return &service.Failover{Remote: r, Local: &service.Local{Env: env}}
}

// ParseLevel maps the CLI level names to core levels; ok is false for an
// unknown name. allowBase admits the non-SPT reference level.
func ParseLevel(name string, allowBase bool) (core.Level, bool) {
	return core.ParseLevel(name, allowBase)
}
