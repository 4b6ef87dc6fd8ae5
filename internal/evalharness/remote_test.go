package evalharness

import (
	"context"
	"net"
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/machine"
	"sptc/internal/service"
)

// startDaemon runs an in-process sptd for the remote-mode tests.
func startDaemon(t *testing.T) *service.Server {
	t.Helper()
	srv, err := service.NewServer(service.Config{Addr: "127.0.0.1:0", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	})
	return srv
}

// TestSuiteRemoteEquivalence runs the evaluation suite through a live
// sptd daemon (Options.Client) and asserts the rendered CSV and figure
// output is byte-identical to the local in-process run — cold and again
// warm from the daemon's response cache. The figures must not be able to
// tell where the compilation happened. It runs on the paper's machine
// and again on one with a 60-cycle fork overhead: the daemon must
// simulate the machine the suite asks for.
func TestSuiteRemoteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile+simulate sweep")
	}
	srv := startDaemon(t)

	slowFork := machine.DefaultConfig()
	slowFork.ForkOverhead = 60
	for _, mc := range []struct {
		name string
		cfg  machine.Config
	}{{"default", machine.DefaultConfig()}, {"fork60", slowFork}} {
		t.Run(mc.name, func(t *testing.T) {
			render := func(client service.Client) (string, string) {
				opt := DefaultEvalOptions()
				opt.Machine = mc.cfg
				opt.Benchmarks = []string{"bzip2", "gap"}
				opt.Client = client
				suite, err := RunSuite(opt)
				if err != nil {
					t.Fatalf("client=%T: %v", client, err)
				}
				for _, r := range suite.Runs {
					if r.BaseMetrics.SimOps == 0 {
						t.Errorf("client=%T: %s: empty base metrics %+v", client, r.Name, r.BaseMetrics)
					}
					r.BaseMetrics.Timing = Timing{}
					for _, lr := range r.Levels {
						if lr.Metrics.SimOps == 0 || lr.Metrics.SearchNodes == 0 {
							t.Errorf("client=%T: %s/%s: empty level metrics %+v", client, r.Name, lr.Level, lr.Metrics)
						}
						lr.Metrics.Timing = Timing{}
					}
				}
				var csvBuf, figBuf strings.Builder
				if err := suite.WriteCSV(&csvBuf, core.LevelBest); err != nil {
					t.Fatalf("client=%T: %v", client, err)
				}
				suite.WriteAll(&figBuf, core.LevelBest)
				return csvBuf.String(), figBuf.String()
			}

			localCSV, localFig := render(nil)
			coldCSV, coldFig := render(&service.Remote{URL: srv.URL()})
			if localCSV != coldCSV {
				t.Errorf("CSV output differs between local and remote runs:\n--- local ---\n%s\n--- remote ---\n%s", localCSV, coldCSV)
			}
			if localFig != coldFig {
				t.Errorf("figure output differs between local and remote runs")
			}

			// Warm: the daemon now answers everything from its response
			// cache; the rendered evaluation must still not change by a
			// byte.
			hits := srv.Snapshot().CacheHits
			warmCSV, warmFig := render(&service.Remote{URL: srv.URL()})
			if warmCSV != localCSV || warmFig != localFig {
				t.Errorf("cached remote run diverged from the local run")
			}
			if m := srv.Snapshot(); m.CacheHits == hits {
				t.Errorf("warm suite hit the cache 0 times (misses=%d)", m.CacheMisses)
			}
		})
	}
}

// TestSuiteFallsBackWhenDaemonGone points a Failover at a daemon address
// nobody listens on: every job must run on the fallback Local and be
// marked fallback, record its work counters like any in-process job,
// and render figures and CSV byte-identical to a plain Local run.
func TestSuiteFallsBackWhenDaemonGone(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile+simulate sweep")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := "http://" + ln.Addr().String()
	ln.Close()

	render := func(client service.Client, want Status) (string, string) {
		opt := DefaultEvalOptions()
		opt.Benchmarks = []string{"bzip2", "gap"}
		opt.Workers = 2
		opt.Client = client
		suite, err := RunSuite(opt)
		if err != nil {
			t.Fatalf("client=%T: %v", client, err)
		}
		for _, r := range suite.Runs {
			if r.BaseStatus != want {
				t.Errorf("client=%T: %s/base: status %s, want %s", client, r.Name, r.BaseStatus, want)
			}
			if r.BaseMetrics.SimOps == 0 {
				t.Errorf("client=%T: %s/base: no work recorded %+v", client, r.Name, r.BaseMetrics)
			}
			r.BaseStatus, r.BaseMetrics.Timing = StatusOK, Timing{}
			for _, lr := range r.Levels {
				if lr.Status != want {
					t.Errorf("client=%T: %s/%s: status %s, want %s", client, r.Name, lr.Level, lr.Status, want)
				}
				if lr.Metrics.SimOps == 0 || lr.Metrics.SearchNodes == 0 {
					t.Errorf("client=%T: %s/%s: no work recorded %+v", client, r.Name, lr.Level, lr.Metrics)
				}
				lr.Status, lr.Metrics.Timing = StatusOK, Timing{}
			}
		}
		var csvBuf, figBuf strings.Builder
		if err := suite.WriteCSV(&csvBuf, core.LevelBest); err != nil {
			t.Fatalf("client=%T: %v", client, err)
		}
		suite.WriteAll(&figBuf, core.LevelBest)
		return csvBuf.String(), figBuf.String()
	}

	localCSV, localFig := render(&service.Local{}, StatusOK)
	fbCSV, fbFig := render(&service.Failover{
		Remote: &service.Remote{URL: gone},
		Local:  &service.Local{},
	}, StatusFallback)
	if localCSV != fbCSV {
		t.Errorf("CSV output differs between local and fallback runs:\n--- local ---\n%s\n--- fallback ---\n%s", localCSV, fbCSV)
	}
	if localFig != fbFig {
		t.Errorf("figure output differs between local and fallback runs")
	}
}
