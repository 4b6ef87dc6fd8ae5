package profile_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"sptc/internal/benchprog"
	"sptc/internal/core"
	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/profile"
	"sptc/internal/ssa"
	"sptc/internal/trace"
)

// memoSrc runs long enough for the interpreter to poll its context.
const memoSrc = `
var a int[256];
var s int;
func main() {
	var i int;
	var j int;
	for (j = 0; j < 40; j++) {
		for (i = 1; i < 256; i++) {
			a[i] = a[i-1] + i * j;
			s += a[i] % 7;
		}
	}
	print(s);
}
`

// TestMemoHitMatchesRun compiles every suite program twice at each
// profiled level with one memo. The second compile builds its IR afresh,
// so each of its profiles — the first one and, where SVP rewrote the
// program, the re-profile — is a memo hit materialized on a new,
// identical program; each must equal a fresh Run of that program. The
// second compile's trace records no "profile" span and counts the hits
// on its "compile" span.
func TestMemoHitMatchesRun(t *testing.T) {
	reprofiled := 0
	for _, b := range benchprog.Suite() {
		for _, level := range []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated} {
			t.Run(b.Name+"/"+level.String(), func(t *testing.T) {
				opt := core.DefaultOptions(level)
				opt.ProfileMemo = profile.NewMemo()
				var runs, hits int
				profile.ObserveMemo(opt.ProfileMemo, func(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, got *profile.Profiles, hit bool) {
					if !hit {
						runs++
						return
					}
					hits++
					want, err := profile.Run(context.Background(), prog, nests, discard{}, opt.MaxProfileSteps)
					if err != nil {
						t.Fatalf("fresh run: %v", err)
					}
					compareProfiles(t, prog, nests, tablesOf(got), tablesOf(want))
					if !reflect.DeepEqual(got, want) {
						t.Error("memo hit differs from a fresh run")
					}
				})
				if _, err := core.CompileSource(b.Name, b.Source, opt); err != nil {
					t.Fatal(err)
				}
				if runs == 0 || hits != 0 {
					t.Fatalf("first compile: %d runs, %d hits; want runs only", runs, hits)
				}
				firstRuns := runs
				tk := trace.New().StartTrack("second")
				opt.Trace = tk
				if _, err := core.CompileSource(b.Name, b.Source, opt); err != nil {
					t.Fatal(err)
				}
				if runs != firstRuns || hits != firstRuns {
					t.Errorf("second compile: %d runs, %d hits; want 0 runs and %d hits", runs-firstRuns, hits, firstRuns)
				}
				if n := countSpans(tk, "profile"); n != 0 {
					t.Errorf("second compile recorded %d profile spans, want 0", n)
				}
				if n, _ := tk.Find("compile").Int64("profile_memo_hit"); n != int64(hits) {
					t.Errorf("compile span profile_memo_hit = %d, want %d", n, hits)
				}
				if firstRuns > 1 {
					reprofiled++
				}
			})
		}
	}
	if reprofiled == 0 {
		t.Error("no compile re-profiled after SVP: the post-SVP memo path went untested")
	}
}

func countSpans(tk *trace.Track, name string) int {
	n := 0
	for _, s := range tk.Spans() {
		if s.Name == name {
			n++
		}
	}
	return n
}

// TestMemoKeySensitivity pins the key's exactness: programs built alike
// share it, and a changed constant, block order, statement ID or step
// bound each change it.
func TestMemoKeySensitivity(t *testing.T) {
	prog, nests := buildProgram(t, memoSrc)
	key := profile.MemoKey(prog, nests, 0)
	if again, nests2 := buildProgram(t, memoSrc); profile.MemoKey(again, nests2, 0) != key {
		t.Fatal("rebuilding the same source changed the key")
	}
	if profile.MemoKey(prog, nests, 1000) == key {
		t.Error("changing MaxProfileSteps kept the key")
	}

	mutations := map[string]func(p *ir.Program){
		"constant": func(p *ir.Program) {
			for _, b := range p.Main.Blocks {
				for _, s := range b.Stmts {
					done := false
					s.Ops(func(o *ir.Op) {
						if !done && o.Kind == ir.OpConstInt {
							o.ConstI++
							done = true
						}
					})
					if done {
						return
					}
				}
			}
			t.Fatal("no integer constant")
		},
		"block order": func(p *ir.Program) {
			bs := p.Main.Blocks
			bs[1], bs[2] = bs[2], bs[1]
		},
		"statement ID": func(p *ir.Program) {
			var ss []*ir.Stmt
			for _, b := range p.Main.Blocks {
				ss = append(ss, b.Stmts...)
			}
			ss[0].ID, ss[1].ID = ss[1].ID, ss[0].ID
		},
	}
	for name, mutate := range mutations {
		p, n := buildProgram(t, memoSrc)
		mutate(p)
		if profile.MemoKey(p, n, 0) == key {
			t.Errorf("changing one %s kept the key", name)
		}
	}
}

// TestMemoStoresOnlySuccess pins that failed runs leave nothing behind:
// a run stopped by the step limit or a canceled context is not stored,
// so a later caller with room to finish runs the program itself.
func TestMemoStoresOnlySuccess(t *testing.T) {
	prog, nests := buildProgram(t, memoSrc)
	memo := profile.NewMemo()
	if _, _, err := memo.Run(context.Background(), prog, nests, 100); !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("step-limited run: err = %v, want ErrStepLimit", err)
	}
	if n := profile.MemoLen(memo); n != 0 {
		t.Fatalf("after a step-limit failure the memo holds %d runs", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := memo.Run(ctx, prog, nests, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want context.Canceled", err)
	}
	if n := profile.MemoLen(memo); n != 0 {
		t.Fatalf("after a canceled run the memo holds %d runs", n)
	}
	if _, hit, err := memo.Run(context.Background(), prog, nests, 0); err != nil || hit {
		t.Fatalf("first complete run: hit %v, err %v; want a run", hit, err)
	}
	if _, hit, err := memo.Run(context.Background(), prog, nests, 0); err != nil || !hit {
		t.Fatalf("second complete run: hit %v, err %v; want a hit", hit, err)
	}
}

// TestMemoConcurrent shares one memo between goroutines that each build
// their own copies of two programs; every result must equal a fresh run
// (and -race must stay quiet).
func TestMemoConcurrent(t *testing.T) {
	srcs := []string{memoSrc, `
var s int;
func main() {
	var i int;
	for (i = 0; i < 5000; i++) {
		if (i % 3 == 0) { s += i; } else { s -= 1; }
	}
	print(s);
}
`}
	type built struct {
		prog  *ir.Program
		nests map[*ir.Func]*ssa.LoopNest
	}
	const goroutines, rounds = 8, 3
	progs := make([][rounds]built, goroutines)
	for g := range progs {
		for i := range progs[g] {
			progs[g][i].prog, progs[g][i].nests = buildProgram(t, srcs[(g+i)%len(srcs)])
		}
	}
	memo := profile.NewMemo()
	var wg sync.WaitGroup
	for g := range progs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, b := range progs[g] {
				prog, nests := b.prog, b.nests
				got, _, err := memo.Run(context.Background(), prog, nests, 0)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := profile.Run(context.Background(), prog, nests, discard{}, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: memo result differs from a fresh run", g)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := profile.MemoLen(memo); n != len(srcs) {
		t.Errorf("memo holds %d runs, want %d", n, len(srcs))
	}
}
