package crashtest

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"sptc/internal/incr"
	"sptc/internal/service"
	"sptc/internal/splgen"
)

var (
	binPath string
	binErr  error
)

func TestMain(m *testing.M) {
	if bin := os.Getenv(holdEnv); bin != "" {
		os.Exit(holdDaemon(bin))
	}
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "sptd-crashtest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath, binErr = BuildBinary(dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func start(t *testing.T, args []string) *Daemon {
	t.Helper()
	if binErr != nil {
		t.Fatal(binErr)
	}
	d, err := Start(binPath, args...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Kill)
	return d
}

// TestCrashRestartCycles is the chaos loop: a real sptd process under
// concurrent load is SIGKILLed at a randomized point in each cycle and
// restarted on the same cache files. After every kill, the contract:
// salvage never fails, every response that preceded a completed flush
// is served warm from the restarted daemon, and those responses are
// byte-identical to direct in-process execution — no torn entry is ever
// served. Cycle count comes from SPTD_CHAOS_CYCLES (default 6; CI's
// chaos job runs 20).
func TestCrashRestartCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level kill/restart loop")
	}
	cycles := 6
	if v := os.Getenv("SPTD_CHAOS_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SPTD_CHAOS_CYCLES=%q", v)
		}
		cycles = n
	}
	tmp := t.TempDir()
	args := []string{
		"-cache", filepath.Join(tmp, "sptd.cache"),
		"-incr-cache", filepath.Join(tmp, "incr.cache"),
		"-flush-interval", "25ms",
		"-workers", "2",
	}
	d := start(t, args)
	rnd := rand.New(rand.NewSource(1))

	// pinned accumulates every flush-watermarked request with the exact
	// bytes the live daemon served for it; all of them must survive every
	// later kill and read back identical.
	type durable struct {
		req  *service.CompileRequest
		want []byte
	}
	var pinned []durable

	// normalize zeroes the work counters before comparison: they account
	// for the execution environment (trace attachment, the incr store),
	// not the compilation result, so a daemon with -incr-cache reports
	// them while bare direct execution does not.
	normalize := func(resp *service.CompileResponse) []byte {
		c := *resp
		c.Counters = service.Counters{}
		b, _ := json.Marshal(&c)
		return b
	}

	for cycle := 0; cycle < cycles; cycle++ {
		// Phase A: fresh sources this cycle; each daemon response must
		// already match direct execution byte for byte.
		remote := &service.Remote{URL: d.URL()}
		for i := 0; i < 3; i++ {
			req := &service.CompileRequest{
				Name:   fmt.Sprintf("c%d-%d.spl", cycle, i),
				Source: splgen.Generate(int64(1000*cycle + i)),
				Level:  "best",
			}
			resp, err := remote.Compile(req)
			if err != nil {
				t.Fatalf("cycle %d: phase A request: %v\n%s", cycle, err, d.Output())
			}
			direct, err := service.ExecCompile(req, service.Env{})
			if err != nil {
				t.Fatalf("cycle %d: direct execution: %v", cycle, err)
			}
			if got, want := normalize(resp), normalize(direct); !bytes.Equal(got, want) {
				t.Fatalf("cycle %d: daemon response for %s differs from direct execution\n got: %s\nwant: %s", cycle, req.Name, got, want)
			}
			got, _ := json.Marshal(resp)
			pinned = append(pinned, durable{req, got})
		}
		// Durability watermark: one more completed flush after phase A's
		// responses were cached puts them all on disk.
		m, err := d.Metrics()
		if err != nil {
			t.Fatalf("cycle %d: metrics: %v", cycle, err)
		}
		if err := d.WaitFlushes(m.Flushes+1, 10*time.Second); err != nil {
			t.Fatalf("cycle %d: %v\n%s", cycle, err, d.Output())
		}

		// Phase B: concurrent load so the kill lands mid-flight; these
		// requests are sacrificial and may fail when the daemon dies.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := &service.Remote{URL: d.URL()}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					req := &service.CompileRequest{
						Name:   fmt.Sprintf("b%d-%d-%d.spl", cycle, g, i),
						Source: splgen.Generate(int64(100000 + 1000*cycle + 100*g + i)),
						Level:  "best",
					}
					if _, err := r.Compile(req); err != nil {
						return // daemon died under us: the point of the test
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(10+rnd.Intn(190)) * time.Millisecond)
		d.Kill()
		close(stop)
		wg.Wait()

		// Salvage from the dead daemon's files never fails, and every
		// watermarked entry is still present in the salvaged prefix.
		c, err := service.OpenCache(args[1])
		if err != nil {
			t.Fatalf("cycle %d: cache salvage failed after kill -9: %v", cycle, err)
		}
		for _, p := range pinned {
			if _, ok := c.Get(service.CompileKey(p.req)); !ok {
				t.Fatalf("cycle %d: flushed entry %s lost by kill -9", cycle, p.req.Name)
			}
		}
		if _, err := incr.Open(args[3]); err != nil {
			t.Fatalf("cycle %d: incr store salvage failed after kill -9: %v", cycle, err)
		}

		// Restart on the same files: everything watermarked serves warm
		// and byte-identical.
		d = start(t, args)
		remote = &service.Remote{URL: d.URL()}
		for _, p := range pinned {
			resp, err := remote.Compile(p.req)
			if err != nil {
				t.Fatalf("cycle %d: post-restart request %s: %v", cycle, p.req.Name, err)
			}
			if resp.Meta.Cache != service.DispHit {
				t.Errorf("cycle %d: %s not served warm after restart (disposition %q)", cycle, p.req.Name, resp.Meta.Cache)
			}
			if got, _ := json.Marshal(resp); !bytes.Equal(got, p.want) {
				t.Errorf("cycle %d: %s served torn or divergent bytes after restart", cycle, p.req.Name)
			}
		}
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d kill -9/restart cycles: salvage clean, all %d watermarked responses warm and byte-identical", cycles, len(pinned))
}

// sweepRow is one flush-interval configuration's measurement in the
// durability/latency trade-off sweep.
type sweepRow struct {
	FlushInterval    string `json:"flush_interval"`
	MaxLossWindowMS  int64  `json:"max_loss_window_ms"`
	WarmP50US        int64  `json:"warm_p50_us"`
	WarmP95US        int64  `json:"warm_p95_us"`
	ColdEntries      int    `json:"cold_entries"`
	DurableAfterKill int    `json:"durable_after_kill"`
	Flushes          int64  `json:"flushes"`
	FlushErrors      int64  `json:"flush_errors"`
}

// TestFlushIntervalSweep measures what the -flush-interval knob buys
// and costs: warm-path latency (p50/p95) under each interval, and how
// many cold entries survive an immediate kill -9. Entries behind a
// completed flush must always survive; the loss bound is the flush
// window. The rows are logged as JSON (visible under -v).
func TestFlushIntervalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level latency sweep")
	}
	intervals := []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	const cold = 6  // distinct sources cached per configuration
	const warm = 48 // warm reads measured per configuration

	var rows []sweepRow
	for _, iv := range intervals {
		tmp := t.TempDir()
		cache := filepath.Join(tmp, "sptd.cache")
		args := []string{
			"-cache", cache,
			"-incr-cache", filepath.Join(tmp, "incr.cache"),
			"-flush-interval", iv.String(),
			"-workers", "2",
		}
		d := start(t, args)
		remote := &service.Remote{URL: d.URL()}

		reqs := make([]*service.CompileRequest, cold)
		for i := range reqs {
			reqs[i] = &service.CompileRequest{
				Name:   fmt.Sprintf("sweep%d.spl", i),
				Source: splgen.Generate(int64(5000 + i)),
				Level:  "best",
			}
			if _, err := remote.Compile(reqs[i]); err != nil {
				t.Fatalf("interval %v: cold compile: %v", iv, err)
			}
		}
		// Watermark the cold set, then measure pure warm reads.
		m, err := d.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WaitFlushes(m.Flushes+1, 10*time.Second); err != nil {
			t.Fatalf("interval %v: %v", iv, err)
		}
		lat := make([]time.Duration, 0, warm)
		for i := 0; i < warm; i++ {
			req := reqs[i%cold]
			begin := time.Now()
			resp, err := remote.Compile(req)
			if err != nil {
				t.Fatalf("interval %v: warm read: %v", iv, err)
			}
			if resp.Meta.Cache != service.DispHit {
				t.Fatalf("interval %v: warm read %d not a hit (%q)", iv, i, resp.Meta.Cache)
			}
			lat = append(lat, time.Since(begin))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

		final, err := d.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		d.Kill()
		c, err := service.OpenCache(cache)
		if err != nil {
			t.Fatalf("interval %v: salvage failed: %v", iv, err)
		}
		survived := 0
		for _, req := range reqs {
			if _, ok := c.Get(service.CompileKey(req)); ok {
				survived++
			}
		}
		if survived < cold {
			t.Errorf("interval %v: only %d/%d watermarked entries survived kill -9", iv, survived, cold)
		}
		rows = append(rows, sweepRow{
			FlushInterval:    iv.String(),
			MaxLossWindowMS:  iv.Milliseconds(),
			WarmP50US:        lat[len(lat)/2].Microseconds(),
			WarmP95US:        lat[len(lat)*95/100].Microseconds(),
			ColdEntries:      cold,
			DurableAfterKill: survived,
			Flushes:          final.Flushes,
			FlushErrors:      final.FlushErrors,
		})
	}

	data, _ := json.MarshalIndent(map[string]any{
		"bench":      "flush-interval durability/latency sweep",
		"warm_reads": warm,
		"rows":       rows,
	}, "", "  ")
	t.Logf("sweep:\n%s", data)
}
