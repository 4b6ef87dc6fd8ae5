package main

import (
	"reflect"
	"testing"
	"time"

	"sptc/internal/trace"
)

// tracedCounts runs one traced round and returns its span counters.
func tracedCounts(t *testing.T, w workload) map[string]float64 {
	t.Helper()
	tr := trace.New()
	rr, err := w.round(tr)
	if err != nil {
		t.Fatal(err)
	}
	st := collectSpans(tr)
	if len(st.problems) > 0 {
		t.Fatalf("span problems: %v", st.problems)
	}
	rr.tracer, rr.traced = tr, true
	if failed, probs := w.check([]*roundResult{rr}); failed != 0 || len(probs) != 0 {
		t.Fatalf("check: %d failed: %v", failed, probs)
	}
	return st.counts
}

// TestSearchCountersDeterministic pins the work counters a count-based
// claim rests on: with one seed the search workload's search nodes, cost
// evaluations and incr counts repeat exactly, across rounds and across
// fresh set-ups; another seed changes them.
func TestSearchCountersDeterministic(t *testing.T) {
	size := searchSize{programs: 2, loops: 2, fan: 8, edits: 3}
	counts := func(seed int64) []map[string]float64 {
		w, err := newSearchSized(seed, size)
		if err != nil {
			t.Fatal(err)
		}
		return []map[string]float64{tracedCounts(t, w), tracedCounts(t, w)}
	}
	a, b, c := counts(1), counts(1), counts(2)
	for _, key := range []string{"search_nodes", "cost_evals", "profile_runs", "incr_hits", "incr_misses"} {
		if a[0][key] == 0 {
			t.Errorf("%s is 0", key)
		}
		if a[0][key] != a[1][key] || a[0][key] != b[0][key] {
			t.Errorf("%s does not repeat under one seed: %v, %v, %v", key, a[0][key], a[1][key], b[0][key])
		}
	}
	if a[0]["search_nodes"] == c[0]["search_nodes"] && a[0]["cost_evals"] == c[0]["cost_evals"] {
		t.Errorf("seed 2 gives the same search counters as seed 1: %v", c[0])
	}
}

// TestSuiteCountersDeterministic checks the suite's profile and
// simulator counters repeat exactly on a one-program evaluation.
func TestSuiteCountersDeterministic(t *testing.T) {
	w := &suiteWork{order: []string{"gap"}}
	a, b := tracedCounts(t, w), tracedCounts(t, w)
	for _, key := range []string{"profile_runs", "sim_instructions", "search_nodes", "cost_evals"} {
		if a[key] == 0 || a[key] != b[key] {
			t.Errorf("%s: %v then %v", key, a[key], b[key])
		}
	}
	if w.speedup() <= 0 {
		t.Errorf("speedup %v", w.speedup())
	}
}

// TestServiceRounds runs a small service workload: two rounds whose
// daemon counters agree with the requests sent and repeat exactly, and
// daemon bodies byte-identical to service.Local. Another seed requests
// the programs in another order.
func TestServiceRounds(t *testing.T) {
	size := serviceSize{clients: 2, perClient: 10, missEvery: 5}
	w, err := newServiceSized(1, t.TempDir(), size)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var rounds []*roundResult
	for i := 0; i < 2; i++ {
		rr, err := timedRound(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rr)
	}
	if probs := consistency(rounds); len(probs) > 0 {
		t.Fatal(probs)
	}
	for _, rr := range rounds {
		if len(rr.problems) > 0 {
			t.Fatal(rr.problems)
		}
		if rr.counts["misses"] != 4 || rr.counts["hits"] != 16 {
			t.Fatalf("round counts %v, want 4 misses and 16 hits", rr.counts)
		}
	}
	if failed, probs := w.check(rounds); failed != 0 || len(probs) != 0 {
		t.Fatalf("check: %d failed: %v", failed, probs)
	}
	if w.speedup() <= 0 {
		t.Errorf("speedup %v", w.speedup())
	}
	_, seq1 := planService(1, size)
	_, seq2 := planService(2, size)
	if reflect.DeepEqual(seq1, seq2) {
		t.Error("seeds 1 and 2 give the same request sequences")
	}
}

func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 30; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got := tailMs(ds); got != 20 {
		t.Errorf("tail of 1..30 ms = %v, want 20 (ten samples beyond it)", got)
	}
	if got := tailMs(ds[:5]); got != 5 {
		t.Errorf("tail of 1..5 ms = %v, want the maximum", got)
	}
	if got := medianMs(ds[:4]); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}
