// Command sptc is the SPT compiler driver: it compiles an SPL source
// file through the cost-driven speculative-parallelization pipeline and
// reports what happened to every loop candidate.
//
// Usage:
//
//	sptc [-level basic|best|anticipated] [-report] [-dump] [-partitions] file.spl
//
// With -dump the final IR (including SPT_FORK/SPT_KILL and the pre-fork
// regions) is printed; -report lists every loop candidate with its
// disposition; -partitions additionally prints each candidate's optimal
// partition search result. -trace/-tracecsv export the pipeline's span
// trace (Chrome trace_event JSON / flat CSV); -cpuprofile/-memprofile
// write pprof profiles. -timeout bounds the compile wall clock,
// -search-budget caps the anytime partition search per loop, and
// -inject arms fault-injection points (see internal/resilience); loops
// hit by an injected fault are demoted to serial and reported as
// degradation events. -incr-cache names a loop-result store for
// incremental recompilation: loops whose fingerprint is unchanged since
// the last compile skip the pass-1 analysis entirely. -server routes
// the compile through a running sptd daemon (internal/service) instead
// of executing in-process; the report is byte-identical either way.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sptc/internal/cliutil"
	"sptc/internal/core"
	"sptc/internal/service"
	"sptc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sptc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		level      = fs.String("level", "best", "compilation level: base|basic|best|anticipated")
		report     = fs.Bool("report", true, "print the per-loop report")
		dump       = fs.Bool("dump", false, "dump the final IR")
		partitions = fs.Bool("partitions", false, "print optimal partition details")
		traceOut   = fs.String("trace", "", "write a Chrome trace_event JSON trace of the pipeline to `file`")
		traceCSV   = fs.String("tracecsv", "", "write a flat per-span CSV trace to `file`")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to `file`")
		memProf    = fs.String("memprofile", "", "write a heap profile to `file`")
	)
	resil := cliutil.AddResilienceFlags(fs)
	incrFlag := cliutil.AddIncrFlag(fs)
	server := cliutil.AddServerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: sptc [flags] file.spl")
		fs.PrintDefaults()
		return 2
	}

	lvl, ok := core.ParseLevel(*level, true)
	if !ok {
		fmt.Fprintf(stderr, "sptc: unknown level %q\n", *level)
		return 2
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "sptc: %v\n", err)
		return 1
	}

	prof, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "sptc: %v\n", err)
		return 1
	}
	defer prof.Stop()

	if err := resil.Arm(); err != nil {
		fmt.Fprintf(stderr, "sptc: %v\n", err)
		return 2
	}
	ctx, cancel := resil.Context()
	defer cancel()

	req := &service.CompileRequest{
		Name:   fs.Arg(0),
		Source: string(src),
		Level:  lvl.String(),
		Options: service.ReqOptions{
			SearchBudget: resil.SearchBudget,
			Dump:         *dump,
		},
	}

	var tr *trace.Tracer
	if *traceOut != "" || *traceCSV != "" {
		tr = trace.New()
	}
	var client service.Client
	if server.Remote() {
		// Remote mode: the daemon owns tracing, caching and pass-1
		// parallelism; an exported trace is empty here. Transient daemon
		// failures retry with backoff, and an unreachable daemon degrades
		// to in-process execution (-server-retries/-server-fallback).
		client = server.Client(ctx, service.Env{SearchWorkers: resil.SearchWorkers})
	} else {
		env := service.Env{SearchWorkers: resil.SearchWorkers, Context: ctx}
		store, saveStore := incrFlag.Open()
		defer saveStore()
		env.Incr = store
		if tr != nil {
			env.Track = tr.StartTrack(fs.Arg(0))
		}
		client = &service.Local{Env: env}
	}

	resp, err := client.Compile(req)
	if err != nil {
		fmt.Fprintf(stderr, "sptc: %v\n", err)
		return 1
	}

	if *report {
		fmt.Fprintf(stdout, "%d loop candidate(s), %d SPT loop(s) generated at level %s\n",
			len(resp.Reports), resp.SPTCount, resp.Level)
		for _, r := range resp.Reports {
			fmt.Fprintf(stdout, "  %-12s loop%-3d %-5s depth=%d body=%-4d trips=%-8.1f vcs=%-3d cost=%-8.2f pre=%-4d %s",
				r.Func, r.LoopID, r.Kind, r.Depth, r.BodySize, r.AvgTrip, r.VCCount, r.EstCost, r.PreForkSize, r.Decision)
			if r.SVP {
				fmt.Fprint(stdout, "  [svp]")
			}
			if r.Transformed {
				fmt.Fprintf(stdout, "  -> SPT loop %d", r.SPTLoopID)
			}
			fmt.Fprintln(stdout)
			if *partitions && r.Partition != "" {
				fmt.Fprintf(stdout, "      partition: %s\n", r.Partition)
			}
		}
		if resp.Degraded {
			fmt.Fprintf(stdout, "%d degradation event(s):\n", len(resp.Degradations))
			for _, ev := range resp.Degradations {
				fmt.Fprintf(stdout, "  %s\n", ev)
			}
		}
	}

	if *dump {
		fmt.Fprint(stdout, resp.IR)
	}

	if err := cliutil.ExportTrace(tr, *traceOut, *traceCSV); err != nil {
		fmt.Fprintf(stderr, "sptc: %v\n", err)
		return 1
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(stderr, "sptc: %v\n", err)
		return 1
	}
	return 0
}
