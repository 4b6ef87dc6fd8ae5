package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFlagErrors(t *testing.T) {
	demo := filepath.Join("testdata", "demo.spl")
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"no-args", nil, 2, "usage: sptsim"},
		{"extra-args", []string{demo, demo}, 2, "usage: sptsim"},
		{"unknown-flag", []string{"-frobnicate", demo}, 2, "flag provided but not defined"},
		{"bad-level", []string{"-level", "turbo", demo}, 2, `unknown level "turbo"`},
		{"missing-file", []string{"no-such-file.spl"}, 1, "no-such-file.spl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, tc.args...)
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantErr)
			}
		})
	}
}

// TestGoldenSimulate pins the full -compare output (program output,
// simulation statistics, per-SPT-loop lines, base speedup) on the
// fixture program. The simulator is deterministic and the report carries
// no wall-clock values; regenerate with `go test ./cmd/sptsim -update`.
func TestGoldenSimulate(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-level", "best", "-compare", filepath.Join("testdata", "demo.spl"))
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	golden := filepath.Join("testdata", "simulate.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("simulate output changed:\n--- want ---\n%s--- got ---\n%s", want, stdout)
	}
}

// TestTraceExport checks that a -compare run with -trace produces a
// well-formed merged trace: the level job's track and the base track,
// each with its own compile and simulate spans.
func TestTraceExport(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "t.json")
	code, _, stderr := runCmd(t, "-level", "best", "-compare", "-quiet", "-trace", jsonPath,
		filepath.Join("testdata", "demo.spl"))
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("trace is not well-formed JSON: %v", err)
	}
	compiles := map[int]int{}
	simulates := map[int]int{}
	for _, ev := range out.TraceEvents {
		switch ev.Name {
		case "compile":
			compiles[ev.TID]++
		case "simulate":
			simulates[ev.TID]++
		}
	}
	if len(compiles) != 2 {
		t.Fatalf("expected 2 tracks with compile spans (level + base), got %d", len(compiles))
	}
	for tid := range compiles {
		if compiles[tid] != 1 || simulates[tid] != 1 {
			t.Errorf("track %d: %d compile / %d simulate spans, want 1/1", tid, compiles[tid], simulates[tid])
		}
	}
}
