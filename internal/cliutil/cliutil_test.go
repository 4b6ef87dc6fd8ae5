package cliutil

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sptc/internal/resilience"
	"sptc/internal/service"
	"sptc/internal/trace"
)

func TestExportTrace(t *testing.T) {
	tr := trace.New()
	tk := tr.StartTrack("job")
	tk.Start("compile").Int("n", 7).End()

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "t.json")
	csvPath := filepath.Join(dir, "t.csv")
	if err := ExportTrace(tr, jsonPath, csvPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("exported trace is not JSON: %v", err)
	}
	if _, err := os.Stat(csvPath); err != nil {
		t.Fatal(err)
	}

	// Empty paths are skipped without touching the filesystem.
	if err := ExportTrace(tr, "", ""); err != nil {
		t.Fatal(err)
	}
	// An unwritable path reports an error.
	if err := ExportTrace(tr, filepath.Join(dir, "no", "dir.json"), ""); err == nil {
		t.Error("expected error for unwritable trace path")
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	p, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	// Stop is idempotent and nil-safe.
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := (*Profiles)(nil).Stop(); err != nil {
		t.Fatal(err)
	}
	// The inert form does nothing.
	p2, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Stop(); err != nil {
		t.Fatal(err)
	}
	// Unwritable CPU profile path fails up front.
	if _, err := StartProfiles(filepath.Join(dir, "no", "cpu.prof"), ""); err == nil {
		t.Error("expected error for unwritable cpuprofile path")
	}
}

func TestResilienceFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	r := AddResilienceFlags(fs)
	err := fs.Parse([]string{"-timeout", "250ms", "-search-budget", "7", "-inject", "cliutil.test.point=error"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeout != 250*time.Millisecond || r.SearchBudget != 7 {
		t.Errorf("parsed bundle = %+v", r)
	}
	defer resilience.DisarmAll()
	if err := r.Arm(); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if got := resilience.Armed(); len(got) != 1 || got[0] != "cliutil.test.point" {
		t.Errorf("armed points = %v", got)
	}
	ctx, cancel := r.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("context should carry the -timeout deadline")
	}

	var zero Resilience
	if err := zero.Arm(); err != nil {
		t.Errorf("empty spec must be a no-op, got %v", err)
	}
	ctx2, cancel2 := zero.Context()
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Error("no -timeout must mean no deadline")
	}
}

func TestResilienceArmBadSpec(t *testing.T) {
	defer resilience.DisarmAll()
	r := &Resilience{Inject: "point-without-fault"}
	if err := r.Arm(); err == nil {
		t.Error("malformed spec should fail")
	}
}

func TestResilienceArmBadSpecs(t *testing.T) {
	cases := []string{
		"point-without-fault",
		"p=unknown-fault",
		"p=delay:notaduration",
		"=panic",
	}
	for _, spec := range cases {
		t.Run(spec, func(t *testing.T) {
			defer resilience.DisarmAll()
			r := &Resilience{Inject: spec}
			if err := r.Arm(); err == nil {
				t.Errorf("spec %q should fail to arm", spec)
			}
		})
	}
}

func TestIncrFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	i := AddIncrFlag(fs)
	if err := fs.Parse([]string{"-incr-cache", filepath.Join(t.TempDir(), "c.bin")}); err != nil {
		t.Fatal(err)
	}
	store, closer := i.Open()
	if store == nil {
		t.Fatal("expected a store for a fresh cache path")
	}
	closer() // saves an empty store without error

	// No flag: incremental compilation stays off.
	var off Incr
	if store, closer := off.Open(); store != nil {
		t.Error("empty path must disable the store")
	} else {
		closer()
	}
}

// TestIncrOpenFailSoft pins the fail-soft contract of -incr-cache: a
// damaged or unreadable store degrades to a cold compile (nil store or
// salvaged partial store) and never returns an error to the command.
func TestIncrOpenFailSoft(t *testing.T) {
	cases := map[string]struct {
		prepare   func(t *testing.T, dir string) string
		wantStore bool
	}{
		"unreadable-directory-as-file": {
			func(t *testing.T, dir string) string { return dir }, // a directory: read fails
			false,
		},
		"corrupt-content": {
			func(t *testing.T, dir string) string {
				p := filepath.Join(dir, "c.bin")
				if err := os.WriteFile(p, []byte("sptincr3 then garbage bytes"), 0o666); err != nil {
					t.Fatal(err)
				}
				return p
			},
			true, // salvaged to an empty store, still usable
		},
		"truncated-magic": {
			func(t *testing.T, dir string) string {
				p := filepath.Join(dir, "c.bin")
				if err := os.WriteFile(p, []byte("spt"), 0o666); err != nil {
					t.Fatal(err)
				}
				return p
			},
			true,
		},
		"missing-file": {
			func(t *testing.T, dir string) string { return filepath.Join(dir, "new.bin") },
			true,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			i := &Incr{Path: tc.prepare(t, t.TempDir())}
			store, closer := i.Open()
			if (store != nil) != tc.wantStore {
				t.Fatalf("store presence = %v, want %v", store != nil, tc.wantStore)
			}
			closer() // must never panic or fail the build
		})
	}
}

// TestServerFlags pins how -server, -server-retries and -server-fallback
// build the daemon client: no -server means in-process; retries above
// one install a retry policy with that many attempts; fallback (the
// default) wraps the Remote in a Failover whose Local runs with the
// caller's environment and context.
func TestServerFlags(t *testing.T) {
	parse := func(args ...string) *Server {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := AddServerFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if parse().Remote() {
		t.Error("no -server must mean in-process execution")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := service.Env{SearchWorkers: 3}

	c := parse("-server", "http://d:1", "-server-retries", "3", "-server-fallback=false").Client(ctx, env)
	r, ok := c.(*service.Remote)
	if !ok {
		t.Fatalf("-server-fallback=false: client %T, want *service.Remote", c)
	}
	if r.URL != "http://d:1" || r.Context != ctx || r.Retry == nil || r.Retry.MaxAttempts != 3 {
		t.Errorf("remote = %+v, want URL http://d:1, the caller's context and 3 attempts", r)
	}
	if r := parse("-server", "http://d:1", "-server-retries", "1", "-server-fallback=false").Client(ctx, env).(*service.Remote); r.Retry != nil {
		t.Errorf("-server-retries 1: retry policy %+v, want none", r.Retry)
	}

	s := parse("-server", "http://d:1")
	if !s.Remote() {
		t.Error("-server set, Remote() = false")
	}
	c = s.Client(ctx, env)
	f, ok := c.(*service.Failover)
	if !ok {
		t.Fatalf("default fallback: client %T, want *service.Failover", c)
	}
	if f.Remote.URL != "http://d:1" || f.Remote.Retry == nil || f.Remote.Retry.MaxAttempts != 4 {
		t.Errorf("failover remote = %+v, want URL http://d:1 with the default 4 attempts", f.Remote)
	}
	if f.Local.Env.Context != ctx || f.Local.Env.SearchWorkers != 3 {
		t.Errorf("failover local env = %+v, want the caller's context and SearchWorkers 3", f.Local.Env)
	}
}
