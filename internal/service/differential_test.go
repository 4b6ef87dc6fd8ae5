package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"sptc/internal/core"
	"sptc/internal/resilience"
	"sptc/internal/splgen"
)

// corpus returns the differential test programs: a mix of generated and
// adversarial SPL sources (both generators are deterministic by seed).
func corpus(generated, adversarial int) map[string]string {
	m := make(map[string]string)
	for i := 0; i < generated; i++ {
		m[fmt.Sprintf("gen%d.spl", i)] = splgen.Generate(int64(i + 1))
	}
	for i := 0; i < adversarial; i++ {
		m[fmt.Sprintf("adv%d.spl", i)] = splgen.Adversarial(int64(i + 1))
	}
	return m
}

var allLevels = []string{"base", "basic", "best", "anticipated"}

// TestDifferentialCompile pins the service's central contract on a
// generated corpus x every level: the response served through the cache
// (cold, warm, and after a simulated daemon restart) is byte-identical
// to the direct in-process execution.
func TestDifferentialCompile(t *testing.T) {
	progs := corpus(5, 3)
	path := filepath.Join(t.TempDir(), "svc.cache")
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	local := &Local{Cache: cache}

	type expect struct {
		req  *CompileRequest
		want []byte
	}
	var cases []expect
	for name, src := range progs {
		for _, lvl := range allLevels {
			req := &CompileRequest{Name: name, Source: src, Level: lvl}
			direct, err := ExecCompile(req, Env{})
			if err != nil {
				t.Fatalf("%s@%s: direct: %v", name, lvl, err)
			}
			want, err := json.Marshal(direct)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, expect{req, want})
		}
	}

	check := func(t *testing.T, phase string, wantDisp string) {
		for _, c := range cases {
			resp, err := local.Compile(c.req)
			if err != nil {
				t.Fatalf("%s %s@%s: %v", phase, c.req.Name, c.req.Level, err)
			}
			if wantDisp != "" && resp.Meta.Cache != wantDisp {
				t.Errorf("%s %s@%s: disposition %q, want %q", phase, c.req.Name, c.req.Level, resp.Meta.Cache, wantDisp)
			}
			got, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, c.want) {
				t.Errorf("%s %s@%s: response diverged from direct execution\n got: %s\nwant: %s",
					phase, c.req.Name, c.req.Level, got, c.want)
			}
		}
	}

	check(t, "cold", DispMiss)
	check(t, "warm", DispHit)

	// Daemon restart: persist, reopen, serve everything from disk.
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Salvaged() || reopened.Len() != len(cases) {
		t.Fatalf("restart: len=%d salvaged=%v, want %d/false", reopened.Len(), reopened.Salvaged(), len(cases))
	}
	local = &Local{Cache: reopened}
	check(t, "restart", DispHit)
}

// TestDifferentialSimulate does the same for compile+simulate responses,
// including the -compare base run, and cross-checks the level outputs
// against the base program's output (the transformation correctness
// oracle).
func TestDifferentialSimulate(t *testing.T) {
	progs := corpus(3, 2)
	cache := NewCache()
	local := &Local{Cache: cache}

	for name, src := range progs {
		var baseOut string
		for _, lvl := range allLevels {
			req := &SimulateRequest{Name: name, Source: src, Level: lvl, Compare: lvl != "base"}
			direct, err := ExecSimulate(req, Env{})
			if err != nil {
				t.Fatalf("%s@%s: direct: %v", name, lvl, err)
			}
			want, err := json.Marshal(direct)
			if err != nil {
				t.Fatal(err)
			}

			cold, err := local.Simulate(req)
			if err != nil {
				t.Fatalf("%s@%s: cold: %v", name, lvl, err)
			}
			got, _ := json.Marshal(cold)
			if !bytes.Equal(got, want) {
				t.Errorf("%s@%s: cold response diverged from direct execution", name, lvl)
			}
			warm, err := local.Simulate(req)
			if err != nil {
				t.Fatalf("%s@%s: warm: %v", name, lvl, err)
			}
			if warm.Meta.Cache != DispHit {
				t.Errorf("%s@%s: warm disposition %q, want hit", name, lvl, warm.Meta.Cache)
			}
			if got, _ := json.Marshal(warm); !bytes.Equal(got, want) {
				t.Errorf("%s@%s: warm response diverged from direct execution", name, lvl)
			}

			if lvl == "base" {
				baseOut = cold.Output
			} else {
				if cold.Output != baseOut {
					t.Errorf("%s@%s: program output diverged from base", name, lvl)
				}
				if cold.BaseOutput != baseOut {
					t.Errorf("%s@%s: compare base output diverged from the base run", name, lvl)
				}
			}
		}
	}
}

// TestReconstructRoundTrip pins the harness-facing reconstruction: the
// wire form of a reconstructed result equals the original wire form, so
// remote figure extraction sees exactly what a local run sees. A
// compile degraded by a 1-node search budget must come back with its
// typed degradation events.
func TestReconstructRoundTrip(t *testing.T) {
	roundTrip := func(name string, req *SimulateRequest) *core.Result {
		t.Helper()
		resp, err := ExecSimulate(req, Env{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Through the wire, as a Remote client sees it.
		wire, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		resp = new(SimulateResponse)
		if err := json.Unmarshal(wire, resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		res, err := ReconstructCompile(resp.Compile)
		if err != nil {
			t.Fatalf("%s: reconstruct: %v", name, err)
		}
		back := CompileData(res, false)
		back.Name = resp.Compile.Name
		back.Counters = resp.Compile.Counters
		// Partition summaries are IR-derived and travel only on the
		// wire; the reconstructed skeleton cannot re-derive them.
		for i := range back.Reports {
			back.Reports[i].Partition = resp.Compile.Reports[i].Partition
			back.Reports[i].Kind = resp.Compile.Reports[i].Kind
		}
		gb, _ := json.Marshal(back)
		wb, _ := json.Marshal(resp.Compile)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: compile reconstruction not lossless\n got: %s\nwant: %s", name, gb, wb)
		}

		sim := ReconstructSim(resp.Sim)
		sb, _ := json.Marshal(SimData(sim))
		ob, _ := json.Marshal(resp.Sim)
		if !bytes.Equal(sb, ob) {
			t.Errorf("%s: sim reconstruction not lossless\n got: %s\nwant: %s", name, sb, ob)
		}
		return res
	}

	progs := corpus(3, 2)
	for name, src := range progs {
		for _, lvl := range allLevels {
			roundTrip(name+"@"+lvl, &SimulateRequest{Name: name, Source: src, Level: lvl})
		}
	}

	res := roundTrip("budget", &SimulateRequest{Name: "gen0.spl", Source: progs["gen0.spl"], Level: "best",
		Options: ReqOptions{SearchBudget: 1}})
	if !res.Degraded() {
		t.Fatal("a 1-node search budget did not degrade the compile: the test checks nothing")
	}
	for _, ev := range res.Degradations {
		if ev.Phase == "" || ev.Unit == "" || ev.Reason != resilience.ReasonBudget {
			t.Errorf("degradation event lost its typed fields: %+v", ev)
		}
	}
}
