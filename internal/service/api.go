// Package service is the compilation service: the JSON API types shared
// by the sptd daemon and its clients, the in-process executor the
// daemon's worker pool and the Local client both run, a persistent
// content-addressed response cache layered on the internal/incr record
// log, and the Client interface that lets the sptc/sptsim/sptbench
// front-ends execute either in-process or against a remote daemon.
//
// Response bodies carry only deterministic data — reports, simulation
// counters, degradation events — so a cached response is byte-identical
// to a freshly computed one. Wall-clock durations and the cache
// disposition travel out-of-band (HTTP headers, RespMeta).
package service

import (
	"fmt"
	"sort"
	"time"

	"sptc/internal/core"
	"sptc/internal/ir"
	"sptc/internal/machine"
	"sptc/internal/trace"
)

// RespFormatVersion is folded into every cache key: bumping it after a
// response-schema change invalidates persisted entries instead of
// serving stale shapes.
const RespFormatVersion = 1

// ReqOptions are the result-affecting compilation knobs a client may
// set. Deliberately absent: SearchWorkers and the simulation engine —
// both are pinned result-invariant (worker-invariance and
// engine-fidelity suites), so they stay server-side configuration and
// never fragment the cache.
type ReqOptions struct {
	// DisableSVP turns software value prediction off (ablation).
	DisableSVP bool `json:"disable_svp,omitempty"`
	// DisableSelection transforms every loop with a legal partition
	// regardless of the §6.1 criteria (ablation).
	DisableSelection bool `json:"disable_selection,omitempty"`
	// SearchBudget caps the anytime partition search per loop candidate
	// (0 = unbounded). Note a budgeted compile bypasses the loop-level
	// incr store by design.
	SearchBudget int `json:"search_budget,omitempty"`
	// Dump includes the final IR in the compile response.
	Dump bool `json:"dump,omitempty"`
	// CountersOnly runs the simulation in counters-only mode
	// (machine.RunOptions.CountersOnly): all fidelity counters are
	// bit-identical to a full run, but cycles and the per-loop float
	// timing fields are zero. Rejected together with Compare or
	// CoverageMaxBody, which exist to measure cycles. Being part of the
	// options, it keys the response cache, so full-fidelity and
	// counters-only responses never collide.
	CountersOnly bool `json:"counters_only,omitempty"`
}

// CompileRequest asks for one compilation.
type CompileRequest struct {
	// Name labels the source (file name in diagnostics and traces).
	Name   string `json:"name"`
	Source string `json:"source"`
	// Level is base|basic|best|anticipated.
	Level   string     `json:"level"`
	Options ReqOptions `json:"options,omitempty"`
}

// LoopReport is the wire form of core.LoopReport: flat, lossless for
// every field the CLIs and the evaluation harness read.
type LoopReport struct {
	Func     string `json:"func"`
	LoopID   int    `json:"loop_id"`
	HeaderID int    `json:"header_id"`
	Kind     string `json:"kind"`
	Depth    int    `json:"depth"`

	BodySize   int     `json:"body_size"`
	Iterations float64 `json:"iterations"`
	Entries    float64 `json:"entries"`
	AvgTrip    float64 `json:"avg_trip"`
	VCCount    int     `json:"vc_count"`

	// Partition is the optimal partition summary
	// (partition.Result.String()); empty when the loop was never searched.
	Partition string `json:"partition,omitempty"`
	SVP       bool   `json:"svp,omitempty"`

	Decision string  `json:"decision"`
	Benefit  float64 `json:"benefit"`

	Transformed bool    `json:"transformed,omitempty"`
	SPTLoopID   int     `json:"spt_loop_id,omitempty"`
	EstCost     float64 `json:"est_cost"`
	PreForkSize int     `json:"pre_fork_size"`
	HasCalls    bool    `json:"has_calls,omitempty"`
}

// Counters is the deterministic per-request work accounting, read back
// from the request's trace spans exactly like the evaluation harness's
// Metrics. With serial pass 1 (the daemon default) every field is
// deterministic; with SearchWorkers >= 2 the CostEvals/DedupHits/
// MemoShardHits triple is scheduling-dependent (see partition.Options).
type Counters struct {
	SearchNodes     int64 `json:"search_nodes"`
	CostEvals       int64 `json:"cost_evals"`
	DedupHits       int64 `json:"dedup_hits"`
	Recomputes      int64 `json:"recomputes"`
	SearchWorkers   int64 `json:"search_workers,omitempty"`
	BoundUpdates    int64 `json:"bound_updates"`
	MemoShardHits   int64 `json:"memo_shard_hits"`
	IncrHits        int64 `json:"incr_hits,omitempty"`
	IncrMisses      int64 `json:"incr_misses,omitempty"`
	IncrInvalidated int64 `json:"incr_invalidated,omitempty"`
	SimOps          int64 `json:"sim_ops,omitempty"`
	Degraded        int64 `json:"degraded,omitempty"`
}

// RespMeta is the out-of-band, non-deterministic envelope of a response:
// never part of the response body or the cache, filled by the client
// from HTTP headers (Remote) or measured directly (Local).
type RespMeta struct {
	// Cache is the daemon's disposition: "hit", "miss", "join" (waited on
	// an identical in-flight request), or "" in-process.
	Cache string
	// Compile and Simulate are the request's wall-clock execution times.
	Compile  time.Duration
	Simulate time.Duration
	// Retries counts the failed remote attempts that preceded this
	// response (0 when the first attempt succeeded or retries are off).
	Retries int
	// Fallback reports that a Failover client served this response from
	// its degraded in-process Local after the daemon became unreachable.
	Fallback bool
}

// CompileResponse is the deterministic result of one compilation.
type CompileResponse struct {
	Name         string       `json:"name"`
	Level        string       `json:"level"`
	Reports      []LoopReport `json:"reports"`
	SPTCount     int          `json:"spt_count"`
	Counters     Counters     `json:"counters"`
	Degraded     bool         `json:"degraded,omitempty"`
	Degradations []string     `json:"degradations,omitempty"`
	// IR is the final program listing, present when Options.Dump was set.
	IR string `json:"ir,omitempty"`

	Meta RespMeta `json:"-"`
}

// SimulateRequest asks for a compile + simulation.
type SimulateRequest struct {
	Name    string     `json:"name"`
	Source  string     `json:"source"`
	Level   string     `json:"level"`
	Options ReqOptions `json:"options,omitempty"`
	// Machine overrides the simulated machine configuration (nil = the
	// paper's default config).
	Machine *machine.Config `json:"machine,omitempty"`
	// Compare additionally compiles and simulates the non-SPT base
	// program and reports it in Base/BaseOutput (ignored at level base).
	Compare bool `json:"compare,omitempty"`
	// CoverageMaxBody, when > 0, makes the simulation attribute cycles
	// to every natural loop with body size at most this limit and reports
	// MaxCoverage (the Figure 16 upper bar, defined on the base
	// program's cycles). Accepted only at level base; other levels are
	// rejected as malformed.
	CoverageMaxBody int `json:"coverage_max_body,omitempty"`
}

// SimLoop is the wire form of machine.LoopStats (minus the redundant ID,
// which is the map key).
type SimLoop struct {
	Invocations  int64   `json:"invocations"`
	Iterations   int64   `json:"iterations"`
	SpecIters    int64   `json:"spec_iters"`
	MisspecIters int64   `json:"misspec_iters"`
	SpecOps      int64   `json:"spec_ops"`
	ReexecOps    int64   `json:"reexec_ops"`
	SpecCycles   float64 `json:"spec_cycles"`
	ReexecCycles float64 `json:"reexec_cycles"`
	SeqCycles    float64 `json:"seq_cycles"`
	Elapsed      float64 `json:"elapsed"`
	Forks        int64   `json:"forks"`
	Kills        int64   `json:"kills"`
}

// ReexecRatio mirrors machine.LoopStats.ReexecRatio.
func (l *SimLoop) ReexecRatio() float64 {
	if l.SpecOps == 0 {
		return 0
	}
	return float64(l.ReexecOps) / float64(l.SpecOps)
}

// LoopSpeedup mirrors machine.LoopStats.LoopSpeedup.
func (l *SimLoop) LoopSpeedup() float64 {
	if l.Elapsed == 0 {
		return 1
	}
	return l.SeqCycles / l.Elapsed
}

// SimSummary is the wire form of machine.Result.
type SimSummary struct {
	Cycles        float64          `json:"cycles"`
	Ops           int64            `json:"ops"`
	BranchLookups int64            `json:"branch_lookups"`
	BranchMisses  int64            `json:"branch_misses"`
	MemAccesses   int64            `json:"mem_accesses"`
	Loops         map[int]*SimLoop `json:"loops,omitempty"`
}

// IPC mirrors machine.Result.IPC.
func (s *SimSummary) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Ops) / s.Cycles
}

// SimulateResponse is the deterministic result of one compile+simulate.
type SimulateResponse struct {
	Name    string           `json:"name"`
	Level   string           `json:"level"`
	Compile *CompileResponse `json:"compile"`
	// Output is the program's captured output (byte-identical across
	// levels for a correct transformation).
	Output string      `json:"output"`
	Sim    *SimSummary `json:"sim"`
	// MaxCoverage is filled when CoverageMaxBody > 0 (level base only).
	MaxCoverage float64 `json:"max_coverage,omitempty"`
	// Base/BaseOutput are filled when Compare was set at a non-base level.
	Base       *SimSummary `json:"base,omitempty"`
	BaseOutput string      `json:"base_output,omitempty"`

	Meta RespMeta `json:"-"`
}

// ---- core/machine -> wire conversions ----

// CompileData converts a core result to its wire form. The conversion is
// lossless for every field the CLIs and the harness consume, so local
// and remote execution render identical bytes.
func CompileData(res *core.Result, dump bool) *CompileResponse {
	resp := &CompileResponse{
		Level:    res.Level.String(),
		SPTCount: len(res.SPT),
		Degraded: res.Degraded(),
	}
	for _, r := range res.Reports {
		lr := LoopReport{
			Func:        r.Func,
			LoopID:      r.LoopID,
			HeaderID:    r.HeaderID,
			Kind:        r.Kind.String(),
			Depth:       r.Depth,
			BodySize:    r.BodySize,
			Iterations:  r.Iterations,
			Entries:     r.Entries,
			AvgTrip:     r.AvgTrip,
			VCCount:     r.VCCount,
			SVP:         r.SVP,
			Decision:    r.Decision.String(),
			Benefit:     r.Benefit,
			Transformed: r.Transformed,
			SPTLoopID:   r.SPTLoopID,
			EstCost:     r.EstCost,
			PreForkSize: r.PreForkSize,
			HasCalls:    r.HasCalls,
		}
		if r.Partition != nil {
			lr.Partition = r.Partition.String()
		}
		resp.Reports = append(resp.Reports, lr)
	}
	for _, ev := range res.Degradations {
		resp.Degradations = append(resp.Degradations, ev.String())
	}
	if dump {
		resp.IR = ir.FormatProgram(res.Prog)
	}
	return resp
}

// SimData converts a machine result to its wire form.
func SimData(sim *machine.Result) *SimSummary {
	s := &SimSummary{
		Cycles:        sim.Cycles,
		Ops:           sim.Ops,
		BranchLookups: sim.BranchLookups,
		BranchMisses:  sim.BranchMisses,
		MemAccesses:   sim.MemAccesses,
	}
	if len(sim.Loops) > 0 {
		s.Loops = make(map[int]*SimLoop, len(sim.Loops))
		for id, ls := range sim.Loops {
			s.Loops[id] = &SimLoop{
				Invocations:  ls.Invocations,
				Iterations:   ls.Iterations,
				SpecIters:    ls.SpecIters,
				MisspecIters: ls.MisspecIters,
				SpecOps:      ls.SpecOps,
				ReexecOps:    ls.ReexecOps,
				SpecCycles:   ls.SpecCycles,
				ReexecCycles: ls.ReexecCycles,
				SeqCycles:    ls.SeqCycles,
				Elapsed:      ls.Elapsed,
				Forks:        ls.Forks,
				Kills:        ls.Kills,
			}
		}
	}
	return s
}

// CountersFromTrack reads the request's work counters back from its
// completed trace spans, mirroring the harness's metricsFromTrack so the
// wire counters and a local run's metrics agree by construction.
func CountersFromTrack(tk *trace.Track) Counters {
	if tk == nil {
		return Counters{}
	}
	c := Counters{
		SearchNodes:     tk.SumInt("loop", "search_nodes"),
		CostEvals:       tk.SumInt("loop", "cost_evals"),
		DedupHits:       tk.SumInt("loop", "dedup_hits"),
		Recomputes:      tk.SumInt("loop", "recomputes"),
		BoundUpdates:    tk.SumInt("loop", "bound_updates"),
		MemoShardHits:   tk.SumInt("loop", "memo_shard_hits"),
		Degraded:        tk.SumInt("pass1", "degraded") + tk.SumInt("transform", "degraded"),
		IncrHits:        tk.SumInt("pass1", "incr_hits"),
		IncrMisses:      tk.SumInt("pass1", "incr_misses"),
		IncrInvalidated: tk.SumInt("pass1", "incr_invalidated"),
	}
	for _, s := range tk.Spans() {
		if s.Name != "loop" {
			continue
		}
		if v, ok := s.Int64("search_workers"); ok && v > c.SearchWorkers {
			c.SearchWorkers = v
		}
	}
	if v, ok := tk.Find("simulate").Int64("sim_instructions"); ok {
		c.SimOps = v
	}
	return c
}

// ---- wire -> core/machine reconstructions ----

// ReconstructCompile rebuilds the core result skeleton the evaluation
// harness's figure extraction reads (reports with typed decisions, the
// SPT loop list) from a wire response. IR-backed fields (Prog, Func,
// Header) stay nil: everything derived from them travels explicitly on
// the wire (HasCalls, Partition summaries).
func ReconstructCompile(resp *CompileResponse) (*core.Result, error) {
	lvl, ok := core.ParseLevel(resp.Level, true)
	if !ok {
		return nil, fmt.Errorf("service: response has unknown level %q", resp.Level)
	}
	res := &core.Result{Level: lvl}
	for i := range resp.Reports {
		r := &resp.Reports[i]
		d, ok := core.ParseDecision(r.Decision)
		if !ok {
			return nil, fmt.Errorf("service: response has unknown decision %q", r.Decision)
		}
		rep := &core.LoopReport{
			Func:        r.Func,
			LoopID:      r.LoopID,
			HeaderID:    r.HeaderID,
			Depth:       r.Depth,
			BodySize:    r.BodySize,
			Iterations:  r.Iterations,
			Entries:     r.Entries,
			AvgTrip:     r.AvgTrip,
			VCCount:     r.VCCount,
			SVP:         r.SVP,
			Decision:    d,
			Benefit:     r.Benefit,
			Transformed: r.Transformed,
			SPTLoopID:   r.SPTLoopID,
			EstCost:     r.EstCost,
			PreForkSize: r.PreForkSize,
			HasCalls:    r.HasCalls,
		}
		res.Reports = append(res.Reports, rep)
		if rep.Transformed {
			res.SPT = append(res.SPT, &core.SPTLoop{ID: rep.SPTLoopID, Report: rep})
		}
	}
	// SPT lists are ID-ordered by construction in the compiler; the
	// report order on the wire preserves that, but sort defensively.
	sort.Slice(res.SPT, func(i, j int) bool { return res.SPT[i].ID < res.SPT[j].ID })
	return res, nil
}

// ReconstructSim rebuilds the machine result the harness reads from a
// wire summary.
func ReconstructSim(s *SimSummary) *machine.Result {
	sim := &machine.Result{
		Cycles:        s.Cycles,
		Ops:           s.Ops,
		BranchLookups: s.BranchLookups,
		BranchMisses:  s.BranchMisses,
		MemAccesses:   s.MemAccesses,
	}
	if len(s.Loops) > 0 {
		sim.Loops = make(map[int]*machine.LoopStats, len(s.Loops))
		for id, l := range s.Loops {
			sim.Loops[id] = &machine.LoopStats{
				ID:           id,
				Invocations:  l.Invocations,
				Iterations:   l.Iterations,
				SpecIters:    l.SpecIters,
				MisspecIters: l.MisspecIters,
				SpecOps:      l.SpecOps,
				ReexecOps:    l.ReexecOps,
				SpecCycles:   l.SpecCycles,
				ReexecCycles: l.ReexecCycles,
				SeqCycles:    l.SeqCycles,
				Elapsed:      l.Elapsed,
				Forks:        l.Forks,
				Kills:        l.Kills,
			}
		}
	}
	return sim
}
