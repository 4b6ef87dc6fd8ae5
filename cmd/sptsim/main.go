// Command sptsim compiles an SPL program and runs it on the SPT machine
// simulator, reporting cycles, IPC, and per-SPT-loop statistics. With
// -compare it also runs the non-SPT base compilation and reports the
// speedup. -trace/-tracecsv export the compile+simulate span trace;
// -cpuprofile/-memprofile write pprof profiles. -timeout bounds the
// whole compile+simulate wall clock, -search-budget caps the anytime
// partition search per loop, and -inject arms fault-injection points
// (see internal/resilience). -incr-cache names a loop-result store for
// incremental recompilation (see internal/incr). -server routes the
// compile+simulate through a running sptd daemon (internal/service);
// the printed report is byte-identical either way.
//
// Usage:
//
//	sptsim [-level best] [-compare] [-quiet] file.spl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sptc/internal/cliutil"
	"sptc/internal/core"
	"sptc/internal/service"
	"sptc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sptsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		level    = fs.String("level", "best", "compilation level: base|basic|best|anticipated")
		compare  = fs.Bool("compare", false, "also simulate the base compilation and report speedup")
		quiet    = fs.Bool("quiet", false, "suppress program output")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON trace to `file`")
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
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: sptsim [flags] file.spl")
		fs.PrintDefaults()
		return 2
	}

	lvl, ok := core.ParseLevel(*level, true)
	if !ok {
		fmt.Fprintf(stderr, "sptsim: unknown level %q\n", *level)
		return 2
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "sptsim: %v\n", err)
		return 1
	}

	prof, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "sptsim: %v\n", err)
		return 1
	}
	defer prof.Stop()

	if err := resil.Arm(); err != nil {
		fmt.Fprintf(stderr, "sptsim: %v\n", err)
		return 2
	}
	ctx, cancel := resil.Context()
	defer cancel()

	req := &service.SimulateRequest{
		Name:    fs.Arg(0),
		Source:  string(src),
		Level:   lvl.String(),
		Options: service.ReqOptions{SearchBudget: resil.SearchBudget},
		Compare: *compare,
	}

	var tr *trace.Tracer
	if *traceOut != "" || *traceCSV != "" {
		tr = trace.New()
	}
	var client service.Client
	remote := server.Remote()
	if remote {
		// Remote mode: the daemon owns tracing, caching and pass-1
		// parallelism; program output arrives in the response.
		// Transient daemon failures retry with backoff, and an unreachable
		// daemon degrades to in-process execution (-server-retries /
		// -server-fallback).
		client = server.Client(ctx, service.Env{SearchWorkers: resil.SearchWorkers})
	} else {
		env := service.Env{
			SearchWorkers: resil.SearchWorkers,
			Context:       ctx,
		}
		store, saveStore := incrFlag.Open()
		defer saveStore()
		env.Incr = store
		if tr != nil {
			env.Track = tr.StartTrack(fs.Arg(0) + "/" + lvl.String())
			if *compare && lvl.String() != "base" {
				env.BaseTrack = tr.StartTrack(fs.Arg(0) + "/base")
			}
		}
		if !*quiet {
			// Stream program output live, exactly like the pre-service CLI.
			env.Out = stdout
		}
		client = &service.Local{Env: env}
	}

	resp, err := client.Simulate(req)
	if err != nil {
		fmt.Fprintf(stderr, "sptsim: %v\n", err)
		return 1
	}
	if resp.Compile.Degraded {
		fmt.Fprintf(stderr, "sptsim: compile degraded (%d event(s))\n", len(resp.Compile.Degradations))
	}
	if remote && !*quiet {
		fmt.Fprint(stdout, resp.Output)
	}

	sim := resp.Sim
	fmt.Fprintf(stdout, "level=%s cycles=%.0f instructions=%d ipc=%.2f branches=%d mispredicts=%d mem-accesses=%d\n",
		resp.Level, sim.Cycles, sim.Ops, sim.IPC(), sim.BranchLookups, sim.BranchMisses, sim.MemAccesses)

	var ids []int
	for id := range sim.Loops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ls := sim.Loops[id]
		fmt.Fprintf(stdout, "  SPT loop %d: invocations=%d iterations=%d speculative=%d misspeculated=%d reexec-ratio=%.3f loop-speedup=%.2fx\n",
			id, ls.Invocations, ls.Iterations, ls.SpecIters, ls.MisspecIters, ls.ReexecRatio(), ls.LoopSpeedup())
	}

	if resp.Base != nil {
		fmt.Fprintf(stdout, "base cycles=%.0f speedup=%.3fx (%.1f%%)\n",
			resp.Base.Cycles, resp.Base.Cycles/sim.Cycles, (resp.Base.Cycles/sim.Cycles-1)*100)
	}

	if err := cliutil.ExportTrace(tr, *traceOut, *traceCSV); err != nil {
		fmt.Fprintf(stderr, "sptsim: %v\n", err)
		return 1
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(stderr, "sptsim: %v\n", err)
		return 1
	}
	return 0
}
