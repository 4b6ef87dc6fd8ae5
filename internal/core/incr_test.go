package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/incr"
	"sptc/internal/ir"
	"sptc/internal/trace"

	"sptc/internal/splgen"
)

// multiFuncSrc is a hand-written multi-function program for the
// function-reordering edit class: splgen emits single-function programs,
// and reordering independent functions is exactly the edit the
// fingerprint's name/position invariance must absorb (every loop clean
// even though loop IDs renumber).
const multiFuncSrc = `
var a int[64];
var g1 int;
var g2 int;

func first() {
	var i int = 0;
	while (i < 40) {
		g1 = (g1 * 17 + i) & 1048575;
		a[(g1) & 63] = a[(g1 + 7) & 63] + 3;
		i = i + 1;
	}
}

func second() {
	var j int = 0;
	while (j < 50) {
		g2 = (g2 + a[(j * 3) & 63] * 5) & 1048575;
		a[(j + 11) & 63] = g2 & 255;
		j = j + 1;
	}
}

func main() {
	var r int = 0;
	while (r < 6) {
		first();
		second();
		r = r + 1;
	}
	print(g1, g2);
}
`

// incrEdit is one edit class of the metamorphic suite. apply returns the
// edited source, or ok=false when the edit does not apply to this
// program. allHits asserts the edit leaves every loop clean (invariance
// edits); someMiss asserts it dirties a nonempty strict subset of the
// loops — the loop-granularity claim: the perturbed loop (and its
// enclosing candidates, whose bodies contain it) go cold while every
// other loop stays clean.
type incrEdit struct {
	name     string
	apply    func(src string) (string, bool)
	allHits  bool
	someMiss bool
}

func incrEdits() []incrEdit {
	wordRe := func(w string) *regexp.Regexp {
		return regexp.MustCompile(`\b` + regexp.QuoteMeta(w) + `\b`)
	}
	return []incrEdit{
		{
			name:    "identity",
			apply:   func(src string) (string, bool) { return src, true },
			allHits: true,
		},
		{
			// Rename locals: fingerprints hash variables by first
			// occurrence, never by name, so every loop stays clean.
			name: "rename-vars",
			apply: func(src string) (string, bool) {
				out := src
				applied := false
				for _, w := range []string{"i1", "h", "k", "i", "j", "r"} {
					re := wordRe(w)
					if re.MatchString(out) {
						out = re.ReplaceAllString(out, w+"RenamedVariable")
						applied = true
					}
				}
				return out, applied
			},
			allHits: true,
		},
		{
			// Perturb one loop body: splgen programs end with the `h = (h
			// * 31 + ...)` checksum loop, whose body no other loop
			// depends on, so exactly that loop goes dirty.
			name: "perturb-one-loop",
			apply: func(src string) (string, bool) {
				if !strings.Contains(src, "* 31 +") {
					return src, false
				}
				return strings.Replace(src, "* 31 +", "* 29 +", 1), true
			},
			someMiss: true,
		},
		{
			// Reorder independent function definitions: loop IDs and
			// structural slots renumber, but the content-addressed keys
			// still hit.
			name: "reorder-funcs",
			apply: func(src string) (string, bool) {
				fi := strings.Index(src, "func first()")
				si := strings.Index(src, "func second()")
				mi := strings.Index(src, "func main()")
				if fi < 0 || si < 0 || mi < 0 || !(fi < si && si < mi) {
					return src, false
				}
				return src[:fi] + src[si:mi] + src[fi:si] + src[mi:], true
			},
			allHits: true,
		},
	}
}

// compileIncr compiles src with an optional incremental store, returning
// the result and the trace track carrying the incr counters.
func compileIncr(tb testing.TB, src string, level core.Level, workers int, store *incr.Store) (*core.Result, *trace.Track) {
	tb.Helper()
	tr := trace.New()
	tk := tr.StartTrack("compile")
	opt := core.DefaultOptions(level)
	opt.SearchWorkers = workers
	opt.Trace = tk
	opt.Incr = store
	res, err := core.CompileSource("incr.spl", src, opt)
	if err != nil {
		tb.Fatalf("compile (level %v, workers %d): %v", level, workers, err)
	}
	return res, tk
}

// diffIncrCompiles asserts that the incremental compile `warm` is
// equivalent to the from-scratch compile `cold` of the same source:
// emitted program bytes, per-loop decisions and costs, degradation
// events, and (at workers <= 1, where they are deterministic even from
// scratch) the restored search counters.
func diffIncrCompiles(t *testing.T, cold, warm *core.Result, workers int) {
	t.Helper()
	if a, b := ir.FormatProgram(cold.Prog), ir.FormatProgram(warm.Prog); a != b {
		t.Fatalf("emitted programs differ:\n--- from scratch ---\n%s\n--- incremental ---\n%s", a, b)
	}
	if len(cold.Reports) != len(warm.Reports) {
		t.Fatalf("report count: from scratch %d, incremental %d", len(cold.Reports), len(warm.Reports))
	}
	for i, cr := range cold.Reports {
		wr := warm.Reports[i]
		if cr.Func != wr.Func || cr.LoopID != wr.LoopID || cr.Kind != wr.Kind || cr.Depth != wr.Depth {
			t.Fatalf("report %d identity differs: %+v vs %+v", i, cr, wr)
		}
		if cr.Decision != wr.Decision {
			t.Fatalf("report %d (%s/loop%d): decision %v (scratch) vs %v (incremental)", i, cr.Func, cr.LoopID, cr.Decision, wr.Decision)
		}
		if cr.BodySize != wr.BodySize || cr.VCCount != wr.VCCount ||
			cr.Iterations != wr.Iterations || cr.AvgTrip != wr.AvgTrip ||
			cr.EstCost != wr.EstCost || cr.PreForkSize != wr.PreForkSize ||
			cr.Benefit != wr.Benefit || cr.Transformed != wr.Transformed ||
			cr.SPTLoopID != wr.SPTLoopID || cr.SVP != wr.SVP {
			t.Fatalf("report %d (%s/loop%d) fields differ:\nscratch:     %+v\nincremental: %+v", i, cr.Func, cr.LoopID, cr, wr)
		}
		cp, wp := cr.Partition, wr.Partition
		if (cp == nil) != (wp == nil) {
			t.Fatalf("report %d: partition presence differs", i)
		}
		if cp == nil {
			continue
		}
		if cp.Cost != wp.Cost || cp.EmptyCost != wp.EmptyCost || cp.Skipped != wp.Skipped ||
			cp.BodySize != wp.BodySize || cp.SizeLimit != wp.SizeLimit ||
			cp.PreForkSize != wp.PreForkSize || len(cp.PreForkVCs) != len(wp.PreForkVCs) ||
			len(cp.Move) != len(wp.Move) || len(cp.CopyConds) != len(wp.CopyConds) {
			t.Fatalf("report %d partition differs:\nscratch:     %v\nincremental: %v", i, cp, wp)
		}
		if cp.SearchNodes != wp.SearchNodes {
			t.Fatalf("report %d search nodes: %d (scratch) vs %d (incremental)", i, cp.SearchNodes, wp.SearchNodes)
		}
		if workers <= 1 {
			// At most one worker: each walker owns its evaluators and
			// visits its subtrees in a fixed order, so every work counter
			// is deterministic and the restored values must match a cold
			// compile exactly.
			if cp.CostEvals != wp.CostEvals || cp.DedupHits != wp.DedupHits || cp.Recomputes != wp.Recomputes {
				t.Fatalf("report %d counters differ: scratch evals=%d dedup=%d recomputes=%d, incremental evals=%d dedup=%d recomputes=%d",
					i, cp.CostEvals, cp.DedupHits, cp.Recomputes, wp.CostEvals, wp.DedupHits, wp.Recomputes)
			}
		}
	}
	if len(cold.Degradations) != len(warm.Degradations) {
		t.Fatalf("degradations: %d (scratch) vs %d (incremental)", len(cold.Degradations), len(warm.Degradations))
	}
	for i, cd := range cold.Degradations {
		wd := warm.Degradations[i]
		if cd.Phase != wd.Phase || cd.Unit != wd.Unit || cd.Reason != wd.Reason {
			t.Fatalf("degradation %d differs: %v vs %v", i, cd, wd)
		}
	}
	if len(cold.SPT) != len(warm.SPT) {
		t.Fatalf("SPT loops: %d (scratch) vs %d (incremental)", len(cold.SPT), len(warm.SPT))
	}
	for i, cs := range cold.SPT {
		if ws := warm.SPT[i]; cs.ID != ws.ID || cs.Report.LoopID != ws.Report.LoopID {
			t.Fatalf("SPT loop %d differs: id %d loop %d vs id %d loop %d", i, cs.ID, cs.Report.LoopID, ws.ID, ws.Report.LoopID)
		}
	}
}

// incrCounters reads the pass-1 incremental counters from a track.
func incrCounters(tk *trace.Track) (hits, misses, invalidated int64) {
	return tk.SumInt("pass1", "incr_hits"), tk.SumInt("pass1", "incr_misses"), tk.SumInt("pass1", "incr_invalidated")
}

// TestIncrementalMetamorphicEquivalence is the headline suite: over a
// corpus of generated and hand-written programs, for every edit class ×
// level × worker count, an incremental recompile of the edited program
// against a store populated by the original must be byte-identical to a
// from-scratch compile of the edited program — and the hit counters must
// show the dirtiness the edit implies (invariance edits: all loops
// clean; a one-loop perturbation: exactly one loop dirty).
func TestIncrementalMetamorphicEquivalence(t *testing.T) {
	corpus := map[string]string{
		"splgen3":   splgen.Generate(3),
		"splgen7":   splgen.Generate(7),
		"splgen11":  splgen.Generate(11),
		"multifunc": multiFuncSrc,
	}
	levels := []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated}
	workerCounts := []int{1, 8}
	for name, src := range corpus {
		for _, edit := range incrEdits() {
			edited, ok := edit.apply(src)
			if !ok {
				continue
			}
			for _, level := range levels {
				for _, workers := range workerCounts {
					t.Run(fmt.Sprintf("%s/%s/%v/w%d", name, edit.name, level, workers), func(t *testing.T) {
						store := incr.New()
						_, baseTk := compileIncr(t, src, level, workers, store)
						_, baseMisses, _ := incrCounters(baseTk)

						warm, warmTk := compileIncr(t, edited, level, workers, store)
						cold, _ := compileIncr(t, edited, level, workers, nil)
						diffIncrCompiles(t, cold, warm, workers)

						hits, misses, _ := incrCounters(warmTk)
						if edit.allHits {
							if misses != 0 || hits != baseMisses {
								t.Fatalf("edit %s should leave every loop clean: base misses %d, warm hits %d misses %d",
									edit.name, baseMisses, hits, misses)
							}
						}
						if edit.someMiss {
							if misses < 1 || hits < 1 || hits+misses != baseMisses {
								t.Fatalf("edit %s should dirty a strict subset of the loops: base misses %d, warm hits %d misses %d",
									edit.name, baseMisses, hits, misses)
							}
						}
					})
				}
			}
		}
	}
}

// TestIncrementalSimulationFidelity runs the machine simulator over the
// incremental and from-scratch compiles of an edited program and
// compares program output and every fidelity counter.
func TestIncrementalSimulationFidelity(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		src := splgen.Generate(seed)
		edited := strings.Replace(src, "* 31 +", "* 29 +", 1)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			store := incr.New()
			compileIncr(t, src, core.LevelBest, 1, store)
			warm, _ := compileIncr(t, edited, core.LevelBest, 1, store)
			cold, _ := compileIncr(t, edited, core.LevelBest, 1, nil)
			outCold, simCold := runSimulator(t, cold, edited, core.LevelBest)
			outWarm, simWarm := runSimulator(t, warm, edited, core.LevelBest)
			if outCold != outWarm {
				t.Fatalf("simulated output differs:\n%q\nvs\n%q", outCold, outWarm)
			}
			if simCold.Cycles != simWarm.Cycles || simCold.Ops != simWarm.Ops ||
				simCold.BranchLookups != simWarm.BranchLookups ||
				simCold.BranchMisses != simWarm.BranchMisses ||
				simCold.MemAccesses != simWarm.MemAccesses {
				t.Fatalf("fidelity counters differ: scratch %+v incremental %+v", simCold, simWarm)
			}
		})
	}
}

// TestIncrementalPersistentStore exercises the disk round trip: populate
// a store in one "session", reopen it in another, and verify a warm
// compile hits every loop and matches from-scratch output.
func TestIncrementalPersistentStore(t *testing.T) {
	src := splgen.Generate(5)
	path := filepath.Join(t.TempDir(), "incr.bin")

	store, err := incr.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_, tk := compileIncr(t, src, core.LevelBest, 1, store)
	_, baseMisses, _ := incrCounters(tk)
	if baseMisses == 0 {
		t.Fatalf("expected cold misses on first compile")
	}
	if err := store.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	reopened, err := incr.Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if reopened.Len() != store.Len() {
		t.Fatalf("reopened store has %d entries, want %d", reopened.Len(), store.Len())
	}
	warm, warmTk := compileIncr(t, src, core.LevelBest, 1, reopened)
	cold, _ := compileIncr(t, src, core.LevelBest, 1, nil)
	diffIncrCompiles(t, cold, warm, 1)
	hits, misses, _ := incrCounters(warmTk)
	if misses != 0 || hits != baseMisses {
		t.Fatalf("reopened store: hits %d misses %d, want %d/0", hits, misses, baseMisses)
	}
}

// TestIncrementalCorruptStoreFallsBack verifies the fail-soft contract:
// a corrupt or truncated store file loads as a (possibly partial) store,
// the compile runs cold for unsalvageable entries, and output still
// matches from-scratch.
func TestIncrementalCorruptStoreFallsBack(t *testing.T) {
	src := splgen.Generate(5)
	path := filepath.Join(t.TempDir(), "incr.bin")
	store, err := incr.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	compileIncr(t, src, core.LevelBest, 1, store)
	if err := store.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
		"flipped-byte":  func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-5] ^= 0xff; return c },
		"garbage":       func(b []byte) []byte { return []byte("not a store at all") },
		"empty":         func(b []byte) []byte { return nil },
		"header-only":   func(b []byte) []byte { return b[:8] },
		"partial-magic": func(b []byte) []byte { return b[:4] },
	} {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "corrupt.bin")
			if err := os.WriteFile(p, mutate(data), 0o666); err != nil {
				t.Fatal(err)
			}
			s, err := incr.Open(p)
			if err != nil {
				t.Fatalf("corrupt store must open, got error: %v", err)
			}
			warm, _ := compileIncr(t, src, core.LevelBest, 1, s)
			cold, _ := compileIncr(t, src, core.LevelBest, 1, nil)
			diffIncrCompiles(t, cold, warm, 1)
			// And the salvaged store must save cleanly again.
			if err := s.Save(); err != nil {
				t.Fatalf("save after salvage: %v", err)
			}
		})
	}
}

// TestIncrementalInvalidatedCounter checks the third counter: a loop
// whose structural slot was seen with a different fingerprint counts as
// invalidated, not just missed.
func TestIncrementalInvalidatedCounter(t *testing.T) {
	src := splgen.Generate(3)
	edited := strings.Replace(src, "* 31 +", "* 29 +", 1)
	store := incr.New()
	compileIncr(t, src, core.LevelBest, 1, store)
	_, tk := compileIncr(t, edited, core.LevelBest, 1, store)
	hits, misses, invalidated := incrCounters(tk)
	if misses < 1 || hits < 1 {
		t.Fatalf("perturbed loop should go dirty while others stay clean: hits %d misses %d", hits, misses)
	}
	// Every dirty loop here is a structural slot seen before with a
	// different fingerprint, so the full miss count reports as invalidated.
	if invalidated != misses {
		t.Fatalf("all misses are invalidations: misses %d invalidated %d", misses, invalidated)
	}
}

// TestIncrementalBypassConditions: caching must be skipped — and the
// compile must still succeed cold — under a search budget or a deadline,
// where splicing could mask anytime degradation.
func TestIncrementalBypassConditions(t *testing.T) {
	src := splgen.Generate(3)
	store := incr.New()
	compileIncr(t, src, core.LevelBest, 1, store) // populate

	opt := core.DefaultOptions(core.LevelBest)
	opt.Incr = store
	opt.Partition.MaxSearchNodes = 4 // still cacheable: per-loop deterministic budget
	tr := trace.New()
	tk := tr.StartTrack("budgeted")
	opt.Trace = tk
	if _, err := core.CompileSource("incr.spl", src, opt); err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Different MaxSearchNodes → different options key → all misses, no
	// stale hits from the default-budget entries.
	if hits := tk.SumInt("pass1", "incr_hits"); hits != 0 {
		t.Fatalf("MaxSearchNodes change must miss, got %d hits", hits)
	}
}

// fuzzIncrEdit applies one edit opcode to a splgen-generated program.
// Every opcode maps to a textual edit that keeps the program well-formed
// on any splgen output (splgen reserves t<n>/i<n> for generated locals
// and k/h for the checksum epilogue, so the rename targets cannot
// collide), so the fuzz engine can compose arbitrary edit scripts and
// the result always compiles.
func fuzzIncrEdit(src string, op byte) string {
	switch op % 4 {
	case 1:
		// Identifier renames: fingerprint invariance (all loops clean).
		src = regexp.MustCompile(`\bk\b`).ReplaceAllString(src, "checksumIndex")
		src = regexp.MustCompile(`\bh\b`).ReplaceAllString(src, "checksumAcc")
		return regexp.MustCompile(`\bg1\b`).ReplaceAllString(src, "globalOne")
	case 2:
		// Semantic perturbation of the checksum loop: that loop (and any
		// enclosing candidates) goes dirty. No-op once already applied.
		return strings.Replace(src, "* 31 +", "* 29 +", 1)
	case 3:
		// Formatting churn: the fingerprint hashes the parsed IR, so
		// whitespace edits leave every loop clean.
		return strings.ReplaceAll(src, ";\n", ";\n\n")
	default:
		return src
	}
}

// FuzzIncrementalCompile drives the incremental pipeline with fuzzed
// edit scripts: the engine mutates the splgen seed and a byte string of
// edit opcodes, and the oracle asserts that a warm recompile of the
// edited program (store populated by the original) is equivalent to a
// from-scratch compile — and that the hit/miss counters still account
// for every candidate loop.
func FuzzIncrementalCompile(f *testing.F) {
	f.Add(int64(3), []byte{1})
	f.Add(int64(5), []byte{0})
	f.Add(int64(7), []byte{2})
	f.Add(int64(11), []byte{3, 2})
	f.Add(int64(13), []byte{1, 3, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 8 {
			script = script[:8] // bound per-input work; longer scripts only repeat ops
		}
		base := splgen.Generate(seed)
		edited := base
		for _, op := range script {
			edited = fuzzIncrEdit(edited, op)
		}

		store, err := incr.Open(filepath.Join(t.TempDir(), "fuzz.cache"))
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		_, populateTk := compileIncr(t, base, core.LevelBest, 1, store)
		warm, warmTk := compileIncr(t, edited, core.LevelBest, 1, store)
		cold, _ := compileIncr(t, edited, core.LevelBest, 1, nil)
		diffIncrCompiles(t, cold, warm, 1)

		// The edits never add or remove loops, so the warm compile must
		// account for exactly the loop population the populate run saw:
		// every candidate is either a hit or a miss, never dropped.
		_, baseMisses, _ := incrCounters(populateTk)
		hits, misses, _ := incrCounters(warmTk)
		if hits+misses != baseMisses {
			t.Fatalf("loop accounting: %d hits + %d misses != %d candidates", hits, misses, baseMisses)
		}
	})
}
