package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sptc/internal/core"
	"sptc/internal/resilience"
	"sptc/internal/trace"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden")

// wireCase is one pinned simulate request over the Figure 2 program.
type wireCase struct {
	name string
	req  SimulateRequest
}

func wireCases(t *testing.T) []wireCase {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "cmd", "sptsim", "testdata", "fig2.spl"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	return []wireCase{
		{"best-compare", SimulateRequest{Name: "fig2.spl", Source: s, Level: "best", Compare: true}},
		{"base-coverage", SimulateRequest{Name: "fig2.spl", Source: s, Level: "base", CoverageMaxBody: 64}},
		{"budget-degraded", SimulateRequest{Name: "fig2.spl", Source: s, Level: "best",
			Options: ReqOptions{SearchBudget: 1}}},
	}
}

// wireResponse executes one case with tracing on, so the golden pins
// the work counters too.
func wireResponse(t *testing.T, c wireCase) []byte {
	t.Helper()
	resp, err := ExecSimulate(&c.req, Env{Track: trace.New().StartTrack(c.name)})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireGolden pins the exact response bytes of three simulate
// requests (a Compare run, a coverage run and a budget-degraded
// compile), and that decoding a response and encoding it again gives
// the same bytes, as a Remote client's round trip does. Any change to
// the response schema or to a compile's answer shows here; it must come
// with a RespFormatVersion bump.
func TestWireGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range wireCases(t) {
		b := wireResponse(t, c)
		var back SimulateResponse
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("%s: re-encoding the decoded response changed its bytes\n got: %s\nwant: %s", c.name, again, b)
		}
		got.WriteString("# " + c.name + "\n")
		got.Write(b)
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire bytes diverged from %s\n got: %s\nwant: %s", path, got.Bytes(), want)
	}
}

// TestWireRoundTrip decodes responses as a Remote client does and
// requires re-encoding to give the same bytes on a generated corpus at
// every level: every decision and reason name the executor writes
// decodes to its typed value. A compile degraded by a 1-node search
// budget must come back with its typed degradation events.
func TestWireRoundTrip(t *testing.T) {
	roundTrip := func(name string, req *SimulateRequest) *SimulateResponse {
		t.Helper()
		resp, err := ExecSimulate(req, Env{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wire, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		back := new(SimulateResponse)
		if err := json.Unmarshal(wire, back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, wire) {
			t.Errorf("%s: round trip not lossless\n got: %s\nwant: %s", name, again, wire)
		}
		return back
	}

	progs := corpus(3, 2)
	for name, src := range progs {
		for _, lvl := range allLevels {
			roundTrip(name+"@"+lvl, &SimulateRequest{Name: name, Source: src, Level: lvl})
		}
	}

	resp := roundTrip("budget", &SimulateRequest{Name: "gen0.spl", Source: progs["gen0.spl"], Level: "best",
		Options: ReqOptions{SearchBudget: 1}})
	if !resp.Compile.Degraded || len(resp.Compile.Degradations) == 0 {
		t.Fatal("a 1-node search budget did not degrade the compile: the test checks nothing")
	}
	for _, ev := range resp.Compile.Degradations {
		if ev.Phase == "" || ev.Unit == "" || ev.Reason != resilience.ReasonBudget {
			t.Errorf("degradation event lost its typed fields: %+v", ev)
		}
	}
}

// TestWireRejectsUnknownNames: a response naming a loop decision or a
// degradation reason this build does not know fails to decode instead
// of decoding to a zero value.
func TestWireRejectsUnknownNames(t *testing.T) {
	var ok CompileResponse
	if err := json.Unmarshal([]byte(`{"reports":[{"decision":"overlap"}],"degradations":[{"reason":"budget"}]}`), &ok); err != nil {
		t.Fatalf("known names: %v", err)
	}
	if ok.Reports[0].Decision != core.DecisionNested || ok.Degradations[0].Reason != resilience.ReasonBudget {
		t.Errorf("known names decoded to %v/%v", ok.Reports[0].Decision, ok.Degradations[0].Reason)
	}
	for _, body := range []string{
		`{"reports":[{"decision":"hyperselected"}]}`,
		`{"degradations":[{"reason":"gremlins"}]}`,
	} {
		var resp CompileResponse
		if err := json.Unmarshal([]byte(body), &resp); err == nil {
			t.Errorf("decode %s: no error", body)
		}
	}
}
