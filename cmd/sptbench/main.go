// Command sptbench regenerates the paper's evaluation: Table 1 and
// Figures 14 through 19 (§8), by compiling the benchmark suite at the
// basic, best, and anticipated levels and simulating the results on the
// SPT machine.
//
// Usage:
//
//	sptbench                  # everything
//	sptbench -table1          # just Table 1
//	sptbench -fig14 ... -fig19
//	sptbench -bench mcf,vpr   # restrict the suite
//	sptbench -level best      # figure-detail level (default best)
//	sptbench -j 8             # concurrent compile+simulate jobs (default NumCPU)
//	sptbench -v               # progress lines + per-job metrics on stderr
//	sptbench -trace out.json  # Chrome trace: one track per compile+simulate job
//	sptbench -cpuprofile p.out -memprofile m.out
//	sptbench -timeout 30s       # per-job wall clock; timed-out jobs are marked, suite continues
//	sptbench -search-budget 100 # anytime partition search, 100 nodes per loop
//	sptbench -inject core.pass1.loop=panic  # fault injection (see internal/resilience)
//	sptbench -incr-cache spt.cache          # loop-result store for incremental recompilation
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sptc/internal/cliutil"
	"sptc/internal/evalharness"
	"sptc/internal/service"
	"sptc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1   = fs.Bool("table1", false, "print Table 1 (base IPC)")
		fig14    = fs.Bool("fig14", false, "print Figure 14 (speedups)")
		fig15    = fs.Bool("fig15", false, "print Figure 15 (loop breakdown)")
		fig16    = fs.Bool("fig16", false, "print Figure 16 (coverage)")
		fig17    = fs.Bool("fig17", false, "print Figure 17 (partition shape)")
		fig18    = fs.Bool("fig18", false, "print Figure 18 (loop performance)")
		fig19    = fs.Bool("fig19", false, "print Figure 19 (cost correlation)")
		benches  = fs.String("bench", "", "comma-separated benchmark subset")
		level    = fs.String("level", "best", "detail level for figures 15-19 (basic|best|anticipated)")
		verbose  = fs.Bool("v", false, "log progress and per-job metrics")
		csvOut   = fs.Bool("csv", false, "emit machine-readable CSV instead of tables")
		jobs     = fs.Int("j", 0, "concurrent compile+simulate jobs (0 = NumCPU)")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON trace (one track per job) to `file`")
		traceCSV = fs.String("tracecsv", "", "write a flat per-span CSV trace to `file`")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to `file`")
		memProf  = fs.String("memprofile", "", "write a heap profile to `file`")
	)
	resil := cliutil.AddResilienceFlags(fs)
	incrFlag := cliutil.AddIncrFlag(fs)
	server := cliutil.AddServerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sptbench: unexpected argument %q\n", fs.Arg(0))
		fs.PrintDefaults()
		return 2
	}

	lvl, ok := cliutil.ParseLevel(*level, false)
	if !ok {
		fmt.Fprintf(stderr, "sptbench: unknown level %q\n", *level)
		return 2
	}

	opt := evalharness.DefaultEvalOptions()
	if *benches != "" {
		// Benchmark names arrive user-typed ("mcf, VPR"): trim and
		// lowercase each, and skip empty segments.
		for _, n := range strings.Split(*benches, ",") {
			n = strings.ToLower(strings.TrimSpace(n))
			if n != "" {
				opt.Benchmarks = append(opt.Benchmarks, n)
			}
		}
		if len(opt.Benchmarks) == 0 {
			fmt.Fprintf(stderr, "sptbench: -bench %q names no benchmarks\n", *benches)
			return 2
		}
	}
	if *verbose {
		opt.Log = stderr
	}
	opt.Workers = *jobs
	if err := resil.Arm(); err != nil {
		fmt.Fprintf(stderr, "sptbench: %v\n", err)
		return 2
	}
	// -timeout bounds each compile+simulate job (the suite itself keeps
	// going: affected jobs are marked in the status column).
	opt.Timeout = resil.Timeout
	opt.SearchBudget = resil.SearchBudget
	if server.Remote() {
		// Service mode: every compile+simulate job goes through the sptd
		// daemon (whose response cache makes repeat suites near-free);
		// the local incr store does not apply. Transient daemon failures
		// retry with backoff; an unreachable daemon degrades jobs to
		// in-process execution, marked "fallback" in the status column.
		opt.Client = server.Client(context.Background(), service.Env{SearchWorkers: resil.SearchWorkers})
	} else {
		store, saveStore := incrFlag.Open()
		defer saveStore()
		opt.Client = &service.Local{Env: service.Env{Incr: store, SearchWorkers: resil.SearchWorkers}}
	}

	prof, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "sptbench: %v\n", err)
		return 1
	}
	defer prof.Stop()

	var tr *trace.Tracer
	if *traceOut != "" || *traceCSV != "" {
		tr = trace.New()
		opt.Trace = tr
	}

	suite, err := evalharness.RunSuite(opt)
	if err != nil {
		fmt.Fprintf(stderr, "sptbench: %v\n", err)
		return 1
	}
	if *verbose {
		fmt.Fprintln(stderr)
		suite.WriteMetrics(stderr)
	}
	if err := cliutil.ExportTrace(tr, *traceOut, *traceCSV); err != nil {
		fmt.Fprintf(stderr, "sptbench: %v\n", err)
		return 1
	}

	if *csvOut {
		if err := suite.WriteCSV(stdout, lvl); err != nil {
			fmt.Fprintf(stderr, "sptbench: %v\n", err)
			return 1
		}
		return exit(prof, stderr)
	}

	any := *table1 || *fig14 || *fig15 || *fig16 || *fig17 || *fig18 || *fig19
	if !any {
		suite.WriteAll(stdout, lvl)
		return exit(prof, stderr)
	}
	first := true
	section := func(f func()) {
		if !first {
			fmt.Fprintln(stdout)
		}
		first = false
		f()
	}
	if *table1 {
		section(func() { suite.WriteTable1(stdout) })
	}
	if *fig14 {
		section(func() { suite.WriteFig14(stdout) })
	}
	if *fig15 {
		section(func() { suite.WriteFig15(stdout, lvl) })
	}
	if *fig16 {
		section(func() { suite.WriteFig16(stdout, lvl) })
	}
	if *fig17 {
		section(func() { suite.WriteFig17(stdout, lvl) })
	}
	if *fig18 {
		section(func() { suite.WriteFig18(stdout, lvl) })
	}
	if *fig19 {
		section(func() { suite.WriteFig19(stdout, lvl) })
	}
	return exit(prof, stderr)
}

// exit flushes the profiles, reporting any write error as a failure.
func exit(prof *cliutil.Profiles, stderr io.Writer) int {
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(stderr, "sptbench: %v\n", err)
		return 1
	}
	return 0
}
