// Command sptd is the SPT compilation daemon: a long-running service
// exposing the cost-driven compilation pipeline and the SPT machine
// simulator over a small JSON HTTP API, fronted by a persistent
// content-addressed response cache.
//
// Endpoints:
//
//	POST /v1/compile   compile one source (service.CompileRequest)
//	POST /v1/simulate  compile + simulate (service.SimulateRequest)
//	GET  /healthz      liveness probe
//	GET  /metrics      admission/outcome/work counters (JSON)
//	GET  /debug/trace  Chrome trace_event export of recent requests
//
// Request bodies are decoded strictly: an unknown field (a misspelt or
// retired option) is a 400 of kind "request", never silently ignored.
// A simulate request's "coverage_max_body" (the Figure 16
// maximum-coverage measurement) is accepted only at level base, where
// the one simulation measures it.
//
// Admission is bounded: at most -queue-depth requests wait for the
// -workers pool, and excess load is rejected with HTTP 429 rather than
// queued unboundedly. Each request runs under a panic guard and the
// -req-timeout soft deadline, so a poison request degrades its own
// response — never the daemon. Identical responses are served from the
// -cache file (content-addressed by source and options, single-flight
// deduplicated), which persists across restarts; -incr-cache adds the
// loop-level incremental store underneath it. SIGINT/SIGTERM shut down
// gracefully: in-flight requests drain and both caches are saved.
//
// Durability between shutdowns is incremental: -flush-interval appends
// both caches to disk on a ticker (and -flush-every after every Nth
// cache miss), so a hard kill (SIGKILL, OOM) loses at most one flush
// window of cached work; the survivors are salvaged on restart. -fsync
// extends the guarantee from process death to power loss.
//
// Usage:
//
//	sptd [-addr :8347] [-cache sptd.cache] [-workers N] [-queue-depth N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sptc/internal/resilience"
	"sptc/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sptd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg service.Config
	inject := fs.String("inject", "", "arm fault-injection points: `point=panic|delay:DUR|error|exhaust[,...]`")
	fs.StringVar(&cfg.Addr, "addr", ":8347", "listen `address` (\":0\" picks a free port)")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", 0, "max requests waiting for a worker before 429 (0 = default 256)")
	fs.IntVar(&cfg.Workers, "workers", 0, "request execution workers (0 = NumCPU)")
	fs.DurationVar(&cfg.ReqTimeout, "req-timeout", 0, "per-request wall-clock budget; expired requests answer 504 (0 = unlimited)")
	fs.StringVar(&cfg.CachePath, "cache", "", "persistent response-cache `file` (empty = in-memory only)")
	fs.StringVar(&cfg.IncrPath, "incr-cache", "", "loop-result store `file` for incremental recompilation (empty = off)")
	fs.Int64Var(&cfg.MaxSource, "max-source", 0, "max request body size in `bytes` (0 = default 4MiB)")
	fs.IntVar(&cfg.SearchWorkers, "search-workers", 0, "parallel pass-1 workers per request; result-invariant (0 = serial)")
	fs.IntVar(&cfg.TraceTracks, "trace-tracks", 0, "request tracks kept for /debug/trace before rotation (0 = default 64)")
	fs.DurationVar(&cfg.FlushInterval, "flush-interval", 0, "append both caches to disk every `interval`; a kill -9 loses at most one window (0 = save only on shutdown)")
	fs.IntVar(&cfg.FlushEveryN, "flush-every", 0, "also flush after every `N`th cache miss (0 = off)")
	fs.BoolVar(&cfg.FlushSync, "fsync", false, "fsync after every flush so completed flushes survive power loss, not just process death")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: sptd [flags]")
		fs.PrintDefaults()
		return 2
	}
	if *inject != "" {
		if err := resilience.ArmSpec(*inject); err != nil {
			fmt.Fprintf(stderr, "sptd: %v\n", err)
			return 2
		}
		defer resilience.DisarmAll()
	}

	srv, err := service.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "sptd: %v\n", err)
		return 1
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintf(stderr, "sptd: %v\n", err)
		return 1
	}
	if c := srv.Cache(); c.Len() > 0 || c.Salvaged() {
		fmt.Fprintf(stdout, "sptd: response cache %s: %d entr%s loaded (salvaged=%v)\n",
			cfg.CachePath, c.Len(), plural(c.Len(), "y", "ies"), c.Salvaged())
	}
	fmt.Fprintf(stdout, "sptd: listening on %s\n", srv.URL())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "sptd: %v\n", err)
		return 1
	}
	m := srv.Snapshot()
	fmt.Fprintf(stdout, "sptd: drained; served %d request(s), cache %d hit(s) %d miss(es), shut down cleanly\n",
		m.Requests, m.CacheHits, m.CacheMisses)
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
