package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"sptc/internal/machine"
	"sptc/internal/splgen"
)

// TestServerEndpoints covers the daemon's observability and guard-rail
// surface: /metrics, /debug/trace, method and size limits, and the
// malformed-request paths.
func TestServerEndpoints(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 2, MaxSource: 16 << 10})
	remote := &Remote{URL: srv.URL()}
	if srv.Cache() == nil {
		t.Fatal("Cache() = nil")
	}

	if _, err := remote.Compile(&CompileRequest{Name: "m.spl", Source: splgen.Generate(1), Level: "best"}); err != nil {
		t.Fatal(err)
	}

	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(srv.URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m Metrics
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("metrics not JSON: %v", err)
		}
		if m.Requests < 1 || m.CacheEntries != 1 {
			t.Errorf("metrics = %+v, want >=1 request and 1 cache entry", m)
		}
	})

	t.Run("trace", func(t *testing.T) {
		resp, err := http.Get(srv.URL() + "/debug/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("trace not chrome JSON: %v", err)
		}
		if len(tr.TraceEvents) == 0 {
			t.Error("trace has no events after a compile")
		}
	})

	t.Run("method-not-allowed", func(t *testing.T) {
		resp, err := http.Get(srv.URL() + "/v1/compile")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/compile = %d, want 405", resp.StatusCode)
		}
	})

	t.Run("not-found", func(t *testing.T) {
		resp, err := http.Post(srv.URL()+"/v1/nope", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST /v1/nope = %d, want 404", resp.StatusCode)
		}
	})

	t.Run("source-too-large", func(t *testing.T) {
		_, err := remote.Compile(&CompileRequest{
			Name: "big.spl", Source: strings.Repeat("x", 64<<10), Level: "best",
		})
		if err == nil {
			t.Fatal("oversized source accepted")
		}
		var rerr *RequestError
		if !errors.As(err, &rerr) {
			t.Errorf("oversized source error = %v, want RequestError", err)
		}
	})

	t.Run("bad-level", func(t *testing.T) {
		_, err := remote.Simulate(&SimulateRequest{Name: "x.spl", Source: "func main() {}", Level: "turbo"})
		var rerr *RequestError
		if !errors.As(err, &rerr) {
			t.Fatalf("unknown level error = %v, want RequestError", err)
		}
		if rerr.Error() == "" {
			t.Error("empty RequestError message")
		}
	})
}

// TestSimulateMachineOverride pins that a custom machine config and the
// coverage measurement travel through the daemon: the overridden config
// changes the simulation, MaxCoverage is populated for a base request,
// and coverage at any other level is rejected as malformed.
func TestSimulateMachineOverride(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 2})
	remote := &Remote{URL: srv.URL()}
	src := splgen.Generate(42)

	base, err := remote.Simulate(&SimulateRequest{Name: "m.spl", Source: src, Level: "base", CoverageMaxBody: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if base.MaxCoverage <= 0 || base.MaxCoverage > 1.0001 {
		t.Errorf("MaxCoverage = %v, want (0, 1]", base.MaxCoverage)
	}
	_, err = remote.Simulate(&SimulateRequest{Name: "m.spl", Source: src, Level: "best", CoverageMaxBody: 1 << 20})
	var rerr *RequestError
	if !errors.As(err, &rerr) {
		t.Errorf("coverage at best: error = %v, want RequestError", err)
	}

	def, err := remote.Simulate(&SimulateRequest{Name: "m.spl", Source: src, Level: "best"})
	if err != nil {
		t.Fatal(err)
	}
	if def.Output != base.Output {
		t.Errorf("best output differs from base")
	}
	cfg := machine.DefaultConfig()
	cfg.ForkOverhead *= 8
	slow, err := remote.Simulate(&SimulateRequest{Name: "m.spl", Source: src, Level: "best", Machine: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Output != def.Output {
		t.Errorf("machine config changed program output")
	}
	if slow.Sim.Cycles == def.Sim.Cycles {
		t.Errorf("8x fork overhead did not change cycles (%v)", slow.Sim.Cycles)
	}
}
