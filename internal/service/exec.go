package service

import (
	"context"
	"fmt"
	"io"
	"time"

	"sptc/internal/core"
	"sptc/internal/incr"
	"sptc/internal/machine"
	"sptc/internal/profile"
	"sptc/internal/trace"
)

// RequestError is a malformed-request failure (unknown level, empty
// source): the daemon maps it to 400, never 500.
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

// Env is the execution environment for one request: the server-side (or
// CLI-side) configuration that is deliberately not part of the request
// because it cannot change the result bytes.
type Env struct {
	// Track receives the request's compile+simulate spans; per-request
	// counters are read back from it. Nil disables tracing (counters stay
	// zero).
	Track *trace.Track
	// BaseTrack receives the Compare base job's spans (sptsim's
	// "file/base" track). Nil falls back to Track.
	BaseTrack *trace.Track
	// Incr is the loop-level result store active underneath the
	// whole-program cache (partial hits for edited sources).
	Incr *incr.Store
	// SearchWorkers parallelizes pass 1 (result-invariant).
	SearchWorkers int
	// ProfileMemo shares profiling runs between the compiles that run
	// with this Env (see core.Options.ProfileMemo; result-invariant). The
	// evaluation harness sets one per suite. The daemon and the CLIs
	// leave it nil: a memo that lives as long as the daemon would grow
	// without bound.
	ProfileMemo *profile.Memo
	// Eng, when non-nil, is a pooled simulation engine owned by the
	// calling worker (per-run machine state reuse).
	Eng *machine.Engine
	// Context cancels the request. Nil means context.Background().
	Context context.Context
	// Out, when non-nil, streams program output during simulation in
	// addition to capturing it (the Local client streams to the CLI's
	// stdout exactly like the pre-service sptsim did).
	Out io.Writer
}

func (e Env) ctx() context.Context {
	if e.Context != nil {
		return e.Context
	}
	return context.Background()
}

func (e Env) engine() *machine.Engine {
	if e.Eng != nil {
		return e.Eng
	}
	return machine.NewEngine()
}

func (e Env) compileOptions(level core.Level, req ReqOptions, tk *trace.Track) core.Options {
	opt := core.DefaultOptions(level)
	opt.Trace = tk
	opt.Context = e.ctx()
	opt.SearchWorkers = e.SearchWorkers
	opt.Incr = e.Incr
	opt.ProfileMemo = e.ProfileMemo
	opt.DisableSVP = opt.DisableSVP || req.DisableSVP
	opt.DisableSelection = opt.DisableSelection || req.DisableSelection
	if req.SearchBudget > 0 {
		opt.Partition.MaxSearchNodes = req.SearchBudget
	}
	return opt
}

func parseLevel(name string) (core.Level, error) {
	lvl, ok := core.ParseLevel(name, true)
	if !ok {
		return 0, &RequestError{Msg: fmt.Sprintf("unknown level %q", name)}
	}
	return lvl, nil
}

// ExecCompile runs one compile request in-process and returns its
// deterministic wire response. Meta durations are filled; the cache
// disposition is the caller's business.
func ExecCompile(req *CompileRequest, env Env) (*CompileResponse, error) {
	lvl, err := parseLevel(req.Level)
	if err != nil {
		return nil, err
	}
	opt := env.compileOptions(lvl, req.Options, env.Track)
	start := time.Now()
	res, err := core.CompileSource(req.Name, req.Source, opt)
	if err != nil {
		return nil, err
	}
	resp := CompileData(res, req.Options.Dump)
	resp.Name = req.Name
	resp.Counters = CountersFromTrack(env.Track)
	resp.Meta.Compile = time.Since(start)
	return resp, nil
}

// captureWriter buffers program output, optionally teeing it to a live
// writer (the Local client's stdout stream).
type captureWriter struct {
	buf []byte
	tee io.Writer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	if w.tee != nil {
		return w.tee.Write(p)
	}
	return len(p), nil
}

func (w *captureWriter) String() string { return string(w.buf) }

// ExecSimulate runs one compile+simulate request in-process: the level
// compile, its simulation (measuring coverage too when CoverageMaxBody
// asks for it) and the optional Compare base run.
func ExecSimulate(req *SimulateRequest, env Env) (*SimulateResponse, error) {
	lvl, err := parseLevel(req.Level)
	if err != nil {
		return nil, err
	}
	if req.CoverageMaxBody > 0 && lvl != core.LevelBase {
		return nil, &RequestError{Msg: fmt.Sprintf("coverage_max_body measures the base program; level %s is not base", lvl)}
	}
	cfg := machine.DefaultConfig()
	if req.Machine != nil {
		cfg = *req.Machine
	}
	eng := env.engine()

	copt := env.compileOptions(lvl, req.Options, env.Track)
	cstart := time.Now()
	res, err := core.CompileSource(req.Name, req.Source, copt)
	if err != nil {
		return nil, err
	}
	cdur := time.Since(cstart)

	simOpt := core.SimulationOptions(res)
	if req.CoverageMaxBody > 0 {
		// A base program has no SPT loops, so its run options take the
		// coverage attribution whole; attribution observes the run
		// without changing it.
		if cov, sizes := core.CoverageOptions(res.Prog, req.CoverageMaxBody); len(sizes) > 0 {
			simOpt.AttributeLoops, simOpt.LoopBlocks = cov.AttributeLoops, cov.LoopBlocks
		}
	}
	simOpt.Trace = env.Track
	simOpt.Context = env.ctx()
	out := &captureWriter{tee: env.Out}
	simOpt.Out = out
	sstart := time.Now()
	sim, err := eng.Run(res.Prog, cfg, simOpt)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}

	resp := &SimulateResponse{
		Name:    req.Name,
		Level:   lvl.String(),
		Compile: CompileData(res, req.Options.Dump),
		Output:  out.String(),
		Sim:     SimData(sim),
	}
	resp.Compile.Name = req.Name
	if req.CoverageMaxBody > 0 {
		resp.MaxCoverage = core.MaxCoverage(sim)
	}

	if req.Compare && lvl != core.LevelBase {
		btk := env.BaseTrack
		if btk == nil {
			btk = env.Track
		}
		bopt := env.compileOptions(core.LevelBase, ReqOptions{}, btk)
		baseRes, err := core.CompileSource(req.Name, req.Source, bopt)
		if err != nil {
			return nil, fmt.Errorf("base compile: %w", err)
		}
		baseOpt := core.SimulationOptions(baseRes)
		baseOpt.Trace = btk
		baseOpt.Context = env.ctx()
		bout := &captureWriter{}
		baseOpt.Out = bout
		baseSim, err := eng.Run(baseRes.Prog, cfg, baseOpt)
		if err != nil {
			return nil, fmt.Errorf("base simulate: %w", err)
		}
		resp.Base = SimData(baseSim)
		resp.BaseOutput = bout.String()
	}

	resp.Compile.Counters = CountersFromTrack(env.Track)
	resp.Meta.Compile = cdur
	resp.Meta.Simulate = time.Since(sstart)
	return resp, nil
}
