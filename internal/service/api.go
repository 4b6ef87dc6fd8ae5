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
// disposition travel out-of-band (HTTP headers, RespMeta). A response is
// the one form its consumers read: the simulation statistics are
// machine.Result itself, and loop decisions and degradation reasons are
// the typed core and resilience values, encoded as their String names.
package service

import (
	"errors"
	"time"

	"sptc/internal/core"
	"sptc/internal/ir"
	"sptc/internal/machine"
	"sptc/internal/resilience"
	"sptc/internal/trace"
)

// RespFormatVersion is folded into every cache key: bumping it after a
// response-schema change, or after a change that alters a compile's
// answer to the same request, invalidates persisted entries instead of
// serving stale shapes or stale decisions.
const RespFormatVersion = 4

// ReqOptions are the result-affecting compilation knobs a client may
// set. Deliberately absent: SearchWorkers, which is pinned
// result-invariant by the worker-invariance suites, so it stays
// server-side configuration and never fragments the cache.
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

	Decision core.Decision `json:"decision"`
	Benefit  float64       `json:"benefit"`

	Transformed bool    `json:"transformed,omitempty"`
	SPTLoopID   int     `json:"spt_loop_id,omitempty"`
	EstCost     float64 `json:"est_cost"`
	PreForkSize int     `json:"pre_fork_size"`
	HasCalls    bool    `json:"has_calls,omitempty"`
}

// Counters is the deterministic per-request work accounting, read back
// from the request's trace spans (CountersFromTrack); the evaluation
// harness's per-job Metrics embed it. With serial pass 1 (the daemon
// default) every field is deterministic. Every partition-search walker
// owns its cost evaluators and shares no table, so with SearchWorkers
// >= 1 under a node budget SearchNodes, CostEvals and DedupHits stay the
// same at every worker count; only Recomputes depends on scheduling (see
// partition.Result).
type Counters struct {
	// SearchNodes totals the branch-and-bound partition-search nodes
	// explored across the compilation's loop candidates (0 at LevelBase,
	// which performs no partition search).
	SearchNodes int64 `json:"search_nodes"`
	// CostEvals totals the §4.2.3 cost propagations the partition
	// searches actually performed; DedupHits counts the lower bounds the
	// searches reused from a parent bound or a record without
	// propagating. Their sum is the number of cost queries the searches
	// issued.
	CostEvals int64 `json:"cost_evals"`
	DedupHits int64 `json:"dedup_hits"`
	// Recomputes totals the dirty dynamic nodes the incremental cost
	// evaluator recomputed (the §4.2.3 propagation's unit of work).
	Recomputes int64 `json:"recomputes"`
	// SearchWorkers is the parallel branch-and-bound worker count the
	// compile's partition searches ran with (0: classic serial search).
	SearchWorkers int64 `json:"search_workers,omitempty"`
	// BoundUpdates totals the incumbent improvements the searches
	// recorded (the bound heuristic 2 prunes against).
	BoundUpdates int64 `json:"bound_updates"`
	// IncrHits/IncrMisses/IncrInvalidated are the incremental-compilation
	// counters (0 unless the executing side's Env.Incr provides a
	// loop-result store): loops whose stored partition was spliced in
	// without re-analysis, loops compiled cold, and the subset of misses
	// whose structural slot was seen before with a different fingerprint
	// (the loop changed).
	IncrHits        int64 `json:"incr_hits,omitempty"`
	IncrMisses      int64 `json:"incr_misses,omitempty"`
	IncrInvalidated int64 `json:"incr_invalidated,omitempty"`
	// SimOps is the number of dynamic instructions simulated.
	SimOps int64 `json:"sim_ops,omitempty"`
	// Degraded counts the compile's fail-soft events (loops demoted to
	// serial, anytime searches stopped early), read back from the
	// "degraded" counters on the pass1 and transform spans.
	Degraded int64 `json:"degraded,omitempty"`
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
	Name         string        `json:"name"`
	Level        string        `json:"level"`
	Reports      []LoopReport  `json:"reports"`
	SPTCount     int           `json:"spt_count"`
	Counters     Counters      `json:"counters"`
	Degraded     bool          `json:"degraded,omitempty"`
	Degradations []Degradation `json:"degradations,omitempty"`
	// IR is the final program listing, present when Options.Dump was set.
	IR string `json:"ir,omitempty"`

	Meta RespMeta `json:"-"`
}

// Degradation is the wire form of resilience.DegradationEvent: its typed
// fields plus the error text. The panic stack stays on the executing
// side.
type Degradation struct {
	Phase  string            `json:"phase"`
	Unit   string            `json:"unit"`
	Reason resilience.Reason `json:"reason"`
	Error  string            `json:"error,omitempty"`
}

// String renders the event as resilience.DegradationEvent does.
func (d Degradation) String() string {
	ev := resilience.DegradationEvent{Phase: d.Phase, Unit: d.Unit, Reason: d.Reason}
	if d.Error != "" {
		ev.Err = errors.New(d.Error)
	}
	return ev.String()
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

// SimSummary names the wire form of a simulation, which is
// machine.Result itself.
type SimSummary = machine.Result

// SimulateResponse is the deterministic result of one compile+simulate.
type SimulateResponse struct {
	Name    string           `json:"name"`
	Level   string           `json:"level"`
	Compile *CompileResponse `json:"compile"`
	// Output is the program's captured output (byte-identical across
	// levels for a correct transformation).
	Output string          `json:"output"`
	Sim    *machine.Result `json:"sim"`
	// MaxCoverage is filled when CoverageMaxBody > 0 (level base only).
	MaxCoverage float64 `json:"max_coverage,omitempty"`
	// Base/BaseOutput are filled when Compare was set at a non-base level.
	Base       *machine.Result `json:"base,omitempty"`
	BaseOutput string          `json:"base_output,omitempty"`

	Meta RespMeta `json:"-"`
}

// ---- core -> wire conversion ----

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
			Decision:    r.Decision,
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
		d := Degradation{Phase: ev.Phase, Unit: ev.Unit, Reason: ev.Reason}
		if ev.Err != nil {
			d.Error = ev.Err.Error()
		}
		resp.Degradations = append(resp.Degradations, d)
	}
	if dump {
		resp.IR = ir.FormatProgram(res.Prog)
	}
	return resp
}

// CountersFromTrack reads the request's work counters back from its
// completed trace spans: the per-loop partition-search counters summed
// over the "loop" spans, the fail-soft and incr counters of the "pass1"
// and "transform" spans, and the dynamic instruction count of the
// "simulate" span. A nil track (tracing off) gives zeros.
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
