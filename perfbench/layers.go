package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sptc/internal/trace"
)

// perLayer lists the per-layer metrics in report order with their
// units. Every traced run reports all of them; a layer a workload does
// not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"parse.ms", "ms"}, {"sem.ms", "ms"}, {"ir.ms", "ms"}, {"ssa.ms", "ms"}, {"transform.ms", "ms"},
	{"profile.ms", "ms"}, {"profile.runs", "count"},
	{"pass1.ms", "ms"}, {"partition.ms", "ms"}, {"partition.search_nodes", "count"},
	{"cost.evals", "count"}, {"cost.recomputes", "count"}, {"partition.dedup_hits", "count"},
	{"incr.hits", "count"}, {"incr.misses", "count"}, {"incr.invalidated", "count"}, {"incr.hit_ratio", "ratio"},
	{"machine.ms", "ms"}, {"machine.coverage_ms", "ms"}, {"machine.sim_instructions", "count"},
	{"machine.mips", "Minstr/s"}, {"machine.branch_misses", "count"}, {"machine.mem_accesses", "count"},
	{"machine.misspec_pct", "%"}, {"cost.fig19_mae", "ratio"},
	{"evalharness.jobs", "count"}, {"evalharness.overhead_ms", "ms"},
	{"service.exec_ms", "ms"}, {"service.transport_ms", "ms"}, {"service.warm_transport_pct", "%"},
	{"service.hits", "count"}, {"service.misses", "count"}, {"service.joins", "count"}, {"service.hit_ratio", "ratio"},
	{"service.flushes", "count"}, {"service.queue_rejects", "count"}, {"service.retries", "count"},
	{"trace.overhead_pct", "%"},
}

// spanLayer maps a pipeline, harness or simulator span name to the
// layer its self time belongs to.
var spanLayer = map[string]string{
	"parse": "parse", "sem": "sem", "build": "ir", "ssa": "ssa",
	"unroll": "transform", "privatize": "transform", "svp": "transform", "transform": "transform", "cleanup": "transform",
	"profile": "profile", "pass1": "pass1", "loop": "partition", "pass2": "pass2",
	"simulate": "machine", "coverage": "machine.coverage", "compile": "compile",
}

// spanStats is what one traced round's spans say about each layer.
type spanStats struct {
	self   map[string]time.Duration // layer -> summed self time
	counts map[string]float64       // counters read from span arguments
	// problems lists spans whose children outlast them.
	problems []string
}

// collectSpans walks every track of tr. A span's self time is its
// duration minus its children's; the benchmark's own spans (names not
// in spanLayer) are attributed to layer "bench".
func collectSpans(tr *trace.Tracer) spanStats {
	st := spanStats{self: map[string]time.Duration{}, counts: map[string]float64{}}
	for _, tk := range tr.Tracks() {
		spans := tk.Spans()
		child := make([]time.Duration, len(spans))
		var open []int // index of the latest span at each depth
		for i, s := range spans {
			open = append(open[:s.Depth], i)
			if s.Depth > 0 {
				child[open[s.Depth-1]] += s.Dur
			}
		}
		for i, s := range spans {
			if child[i] > s.Dur+time.Microsecond {
				st.problems = append(st.problems, fmt.Sprintf("track %s: span %s (%v) has %v of children", tk.Label, s.Name, s.Dur, child[i]))
			}
			layer, ok := spanLayer[s.Name]
			if !ok {
				layer = "bench"
			}
			st.self[layer] += s.Dur - child[i]
			for _, a := range s.Args {
				if a.Kind != trace.ArgInt {
					continue
				}
				switch {
				case s.Name == "loop" && (a.Key == "search_nodes" || a.Key == "cost_evals" || a.Key == "recomputes" || a.Key == "dedup_hits"):
					st.counts[a.Key] += float64(a.I)
				case s.Name == "pass1" && (a.Key == "incr_hits" || a.Key == "incr_misses" || a.Key == "incr_invalidated"):
					st.counts[a.Key] += float64(a.I)
				case (s.Name == "simulate" || s.Name == "coverage") && (a.Key == "sim_instructions" || a.Key == "branch_misses" || a.Key == "mem_accesses"):
					st.counts[a.Key] += float64(a.I)
				}
			}
			if s.Name == "profile" {
				st.counts["profile_runs"]++
			}
		}
	}
	return st
}

// spanLayers turns one traced round's spans into per-layer metrics
// (times in ms, per round).
func spanLayers(st spanStats) map[string]float64 {
	ms := func(layer string) float64 { return float64(st.self[layer]) / float64(time.Millisecond) }
	c := st.counts
	m := map[string]float64{
		"parse.ms": ms("parse"), "sem.ms": ms("sem"), "ir.ms": ms("ir"), "ssa.ms": ms("ssa"),
		"transform.ms": ms("transform"), "profile.ms": ms("profile"), "profile.runs": c["profile_runs"],
		"pass1.ms": ms("pass1"), "partition.ms": ms("partition"),
		"partition.search_nodes": c["search_nodes"], "cost.evals": c["cost_evals"],
		"cost.recomputes": c["recomputes"], "partition.dedup_hits": c["dedup_hits"],
		"incr.hits": c["incr_hits"], "incr.misses": c["incr_misses"], "incr.invalidated": c["incr_invalidated"],
		"machine.ms": ms("machine"), "machine.coverage_ms": ms("machine.coverage"),
		"machine.sim_instructions": c["sim_instructions"],
		"machine.branch_misses":    c["branch_misses"], "machine.mem_accesses": c["mem_accesses"],
	}
	if n := c["incr_hits"] + c["incr_misses"]; n > 0 {
		m["incr.hit_ratio"] = c["incr_hits"] / n
	}
	return m
}

// layerMetrics reports every per-layer metric as its mean over the
// traced rounds, plus the tracing overhead against the untraced rounds.
// It copies the spans' work counters into each traced round's counts
// and checks that children fit inside their parent span and the summed
// layer self times inside the round's wall time (times its client
// count, for the service's concurrent clients).
func layerMetrics(res *result, rounds []*roundResult) {
	sums := map[string]float64{}
	selfs := map[string]time.Duration{}
	var tracedWalls, plainWalls []float64
	var tracedWall time.Duration
	for i, rr := range rounds {
		if !rr.traced {
			plainWalls = append(plainWalls, rr.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, rr.wall.Seconds())
		tracedWall += rr.wall
		st := collectSpans(rr.tracer)
		res.failures = append(res.failures, st.problems...)
		var layerSum time.Duration
		for layer, d := range st.self {
			if layer != "bench" {
				layerSum += d
				selfs[layer] += d
			}
		}
		if layerSum > rr.wall*time.Duration(max(rr.clients, 1)) {
			res.failures = append(res.failures, fmt.Sprintf("round %d: layer self times %v exceed wall %v", i, layerSum, rr.wall))
		}
		for k, v := range spanLayers(st) {
			sums[k] += v
		}
		for k, v := range rr.layers {
			sums[k] += v
		}
		if rr.counts == nil {
			rr.counts = map[string]float64{}
		}
		for k, v := range st.counts {
			rr.counts[k] = v
		}
	}
	n := float64(max(len(tracedWalls), 1))
	for k := range sums {
		sums[k] /= n
	}
	if simMs := sums["machine.ms"] + sums["machine.coverage_ms"]; simMs > 0 {
		sums["machine.mips"] = sums["machine.sim_instructions"] / simMs / 1e3
	}
	if len(plainWalls) > 0 && len(tracedWalls) > 0 {
		sums["trace.overhead_pct"] = (median(tracedWalls)/median(plainWalls) - 1) * 100
	}
	for _, l := range perLayer {
		res.add(l.name, sums[l.name], l.unit, len(tracedWalls))
	}
	res.notes = append(res.notes, layerShares(selfs, tracedWall, sums)...)
}

// layerShares renders the traced rounds' layer-share table: each
// layer's summed self time as a share of the traced rounds' wall time
// ("other" is the remainder: the benchmark's own code and waiting), and
// for the service the split of client latency into daemon execution and
// transport.
func layerShares(selfs map[string]time.Duration, wall time.Duration, sums map[string]float64) []string {
	var lines []string
	if wall <= 0 {
		return nil
	}
	var layers []string
	var total time.Duration
	for l, d := range selfs {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return selfs[layers[i]] > selfs[layers[j]] })
	if total > 0 {
		for _, l := range layers {
			lines = append(lines, fmt.Sprintf("share %-20s %6.2f%%", l, 100*float64(selfs[l])/float64(wall)))
		}
		lines = append(lines, fmt.Sprintf("share %-20s %6.2f%%", "other", 100*(1-float64(total)/float64(wall))))
	}
	if lat := sums["service.exec_ms"] + sums["service.transport_ms"]; lat > 0 {
		lines = append(lines,
			fmt.Sprintf("share %-20s %6.2f%% of client latency", "service.exec", 100*sums["service.exec_ms"]/lat),
			fmt.Sprintf("share %-20s %6.2f%% of client latency", "service.transport", 100*sums["service.transport_ms"]/lat),
			fmt.Sprintf("share %-20s %6.2f%% of warm (hit) latency", "service.transport", sums["service.warm_transport_pct"]))
	}
	return lines
}

// writeTraces writes the first traced round's spans as a Chrome trace.
func writeTraces(rounds []*roundResult, dir, name string) error {
	for _, rr := range rounds {
		if !rr.traced {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+"-trace.json"))
		if err != nil {
			return err
		}
		if err := rr.tracer.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
