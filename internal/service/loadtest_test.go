package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"sptc/internal/resilience"
	"sptc/internal/splgen"
	"sptc/internal/trace"
)

// The load test is the service-level acceptance pin: thousands of
// concurrent requests against a live daemon, cold then warm, with
// faults injected mid-flight. It asserts the contracts that matter at
// load — every response byte-identical to its twin, zero dropped or
// deadlocked requests, exactly one compile per unique key (singleflight),
// monotone counters — and logs p50/p95/p99 latency per phase.

type loadPhase struct {
	Requests int
	Errors   int
	P50us    int64
	P95us    int64
	P99us    int64
	Misses   int64
	Hits     int64
	Joins    int64
}

func percentileUs(durs []time.Duration, p int) int64 {
	if len(durs) == 0 {
		return 0
	}
	s := make([]time.Duration, len(durs))
	copy(s, durs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)*p/100].Microseconds()
}

// fireAll launches every request concurrently behind one gate and waits
// for all of them: per-request latency, response bytes, daemon-side
// metadata, and error.
func fireAll(remote *Remote, reqs []*CompileRequest) ([]time.Duration, [][]byte, []RespMeta, []error) {
	n := len(reqs)
	durs := make([]time.Duration, n)
	bodies := make([][]byte, n)
	metas := make([]RespMeta, n)
	errs := make([]error, n)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			start := time.Now()
			resp, err := remote.Compile(reqs[i])
			durs[i] = time.Since(start)
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i], _ = json.Marshal(resp)
			metas[i] = resp.Meta
		}(i)
	}
	close(gate)
	wg.Wait()
	return durs, bodies, metas, errs
}

func TestServerLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	uniq, perKey := 1000, 2
	if raceEnabled {
		// Stay well under the race detector's goroutine budget (~8k):
		// 384 client goroutines + as many server conn goroutines.
		uniq, perKey = 192, 2
	}
	total := uniq * perKey

	// 32 workers: cold compiles are CPU-bound either way, but cheap warm
	// hits drain the queue in parallel, so warm latency reflects the
	// cache rather than queue depth.
	cfg := Config{Workers: 32, QueueDepth: total + 64}
	srv, _ := startServer(t, cfg)
	remote := &Remote{URL: srv.URL(), HTTPClient: &http.Client{
		Transport: &http.Transport{MaxIdleConns: total, MaxIdleConnsPerHost: total},
	}}

	// Corpus: generated and adversarial sources across every level,
	// perKey identical requests per unique key (key-major order, so
	// request k*perKey+j is the j-th twin of key k).
	levels := []string{"basic", "best", "anticipated"}
	reqs := make([]*CompileRequest, 0, total)
	for k := 0; k < uniq; k++ {
		// Adversarial sources throughout: they carry the deep loop nests
		// that make a cold compile meaningfully more expensive than a
		// cache hit, which is exactly the contrast this test measures.
		src := splgen.Adversarial(int64(1000 + k))
		req := &CompileRequest{
			Name:   fmt.Sprintf("load-%03d.spl", k),
			Source: src,
			Level:  levels[k%len(levels)],
		}
		for j := 0; j < perKey; j++ {
			reqs = append(reqs, req)
		}
	}

	prev := srv.Snapshot()
	phase := func(name string, uniqKeys int, durs []time.Duration, errs []error) loadPhase {
		nerr := 0
		for _, err := range errs {
			if err != nil {
				nerr++
			}
		}
		m := srv.Snapshot()
		p := loadPhase{
			Requests: len(durs), Errors: nerr,
			P50us: percentileUs(durs, 50), P95us: percentileUs(durs, 95), P99us: percentileUs(durs, 99),
			Misses: m.CacheMisses - prev.CacheMisses,
			Hits:   m.CacheHits - prev.CacheHits,
			Joins:  m.StampedeJoins - prev.StampedeJoins,
		}
		// Counters are monotone across phases: a snapshot never goes
		// backwards on any cumulative counter.
		if m.Requests < prev.Requests || m.CacheHits < prev.CacheHits ||
			m.CacheMisses < prev.CacheMisses || m.StampedeJoins < prev.StampedeJoins ||
			m.Errors < prev.Errors || m.Panics < prev.Panics {
			t.Errorf("%s: a cumulative counter went backwards: %+v -> %+v", name, prev, m)
		}
		prev = m
		t.Logf("%-12s %5d req %5d keys  errors=%d  p50=%dus p95=%dus p99=%dus  miss=%d hit=%d join=%d",
			name, p.Requests, uniqKeys, p.Errors, p.P50us, p.P95us, p.P99us, p.Misses, p.Hits, p.Joins)
		return p
	}

	// --- Phase 1: cold. All requests concurrent against an empty cache.
	durs, bodies, cmetas, errs := fireAll(remote, reqs)
	cold := phase("cold", uniq, durs, errs)
	if cold.Errors != 0 {
		for i, err := range errs {
			if err != nil {
				t.Fatalf("cold: request %d (%s@%s) failed: %v", i, reqs[i].Name, reqs[i].Level, err)
			}
		}
	}
	if cold.Misses != int64(uniq) {
		t.Errorf("cold: %d cache misses for %d unique keys, want exactly one compile per key", cold.Misses, uniq)
	}
	if cold.Hits+cold.Joins != int64(total-uniq) {
		t.Errorf("cold: hits(%d)+joins(%d) = %d, want %d duplicate requests served without compiling",
			cold.Hits, cold.Joins, cold.Hits+cold.Joins, total-uniq)
	}
	// Twins are byte-identical; a sample of keys is also checked against
	// direct in-process execution (the full-corpus check is the
	// differential test's job).
	for k := 0; k < uniq; k++ {
		first := bodies[k*perKey]
		for j := 1; j < perKey; j++ {
			if !bytes.Equal(bodies[k*perKey+j], first) {
				t.Fatalf("cold: key %d twin %d diverged from twin 0", k, j)
			}
		}
		if k%16 == 0 {
			direct, err := ExecCompile(reqs[k*perKey], Env{Track: trace.New().StartTrack("direct")})
			if err != nil {
				t.Fatalf("direct %s: %v", reqs[k*perKey].Name, err)
			}
			want, _ := json.Marshal(direct)
			if !bytes.Equal(first, want) {
				t.Errorf("cold: key %d diverged from direct execution", k)
			}
		}
	}

	// --- Phase 2: warm. The same storm again: pure cache hits, still
	// byte-identical.
	wdurs, wbodies, wmetas, werrs := fireAll(remote, reqs)
	warm := phase("warm", uniq, wdurs, werrs)
	if warm.Errors != 0 {
		t.Fatalf("warm: %d requests failed", warm.Errors)
	}
	if warm.Hits != int64(total) {
		t.Errorf("warm: %d hits for %d requests, want all hits", warm.Hits, total)
	}
	for i := range wbodies {
		if !bytes.Equal(wbodies[i], bodies[i]) {
			t.Fatalf("warm: request %d diverged from its cold twin", i)
		}
	}

	// --- Phase 3: faults mid-flight. A warm batch is in flight when the
	// panic fault arms; cached traffic is unaffected while fresh sources
	// fail classified, and nothing poisoned enters the cache.
	nfresh := 64
	fresh := make([]*CompileRequest, nfresh)
	for i := range fresh {
		fresh[i] = &CompileRequest{
			Name:   fmt.Sprintf("poison-%02d.spl", i),
			Source: splgen.Generate(int64(5000 + i)),
			Level:  "best",
		}
	}
	warmBatch := reqs[:256]
	var wg sync.WaitGroup
	warmErrs := make([]error, len(warmBatch))
	warmBodies := make([][]byte, len(warmBatch))
	warmDurs := make([]time.Duration, len(warmBatch))
	wg.Add(1)
	go func() {
		defer wg.Done()
		warmDurs, warmBodies, _, warmErrs = fireAll(remote, warmBatch)
	}()
	time.Sleep(2 * time.Millisecond) // warm traffic is now in flight
	if err := resilience.ArmSpec("core.pass1.loop=panic"); err != nil {
		t.Fatal(err)
	}
	fdurs, _, _, ferrs := fireAll(remote, fresh)
	wg.Wait()
	resilience.DisarmAll()

	all := append(append([]time.Duration{}, warmDurs...), fdurs...)
	phase("faults", nfresh, all, append(append([]error{}, warmErrs...), ferrs...))
	for i, err := range warmErrs {
		if err != nil {
			t.Errorf("faults: warm request %d failed during injection: %v", i, err)
		} else if !bytes.Equal(warmBodies[i], bodies[i]) {
			t.Errorf("faults: warm request %d diverged during injection", i)
		}
	}
	for i, err := range ferrs {
		if err == nil {
			continue // absorbed fail-soft (degraded) — still a valid response
		}
		var perr *resilience.PanicError
		if !errors.As(err, &perr) {
			t.Errorf("faults: fresh request %d failed unclassified: %v", i, err)
		}
	}
	healthz(t, srv)

	// --- Phase 4: recovery. The poisoned keys recompile cleanly: every
	// one a miss (nothing poisoned was cached), none degraded.
	rdurs, _, _, rerrs := fireAll(remote, fresh)
	rec := phase("recovery", nfresh, rdurs, rerrs)
	if rec.Errors != 0 {
		t.Fatalf("recovery: %d requests failed after disarm", rec.Errors)
	}
	if rec.Misses != int64(nfresh) {
		t.Errorf("recovery: %d misses for %d previously-poisoned keys, want all recomputed (poison cached otherwise)",
			rec.Misses, nfresh)
	}
	for i := range fresh {
		resp, err := remote.Compile(fresh[i])
		if err != nil {
			t.Fatalf("recovery: %s: %v", fresh[i].Name, err)
		}
		if resp.Degraded {
			t.Errorf("recovery: %s still degraded after disarm", fresh[i].Name)
		}
	}

	var coldWarmP50x float64
	if warm.P50us > 0 {
		coldWarmP50x = float64(cold.P50us) / float64(warm.P50us)
	}
	t.Logf("cold/warm client p50 ratio: %.1fx", coldWarmP50x)

	// Hits must stay far cheaper than recomputation. The client-side
	// latencies above are mostly queueing behind 2000 concurrent
	// requests, so the check uses the daemon's own account instead: the
	// compile time each response reports (RespMeta.Compile). The miss
	// side is the median compile of a cold miss; the hit side is the
	// mean compile time per warm request, which is zero when every warm
	// request is served from the cache. A hit path that recomputes
	// (every lookup a miss, whatever the disposition says) puts the warm
	// mean above the miss median, so the 10x bar does not depend on how
	// fast compiles are.
	var missCompile []time.Duration
	for i, m := range cmetas {
		if errs[i] == nil && m.Cache == DispMiss {
			missCompile = append(missCompile, m.Compile)
		}
	}
	var warmCompile time.Duration
	for _, m := range wmetas {
		warmCompile += m.Compile
	}
	missP50us := percentileUs(missCompile, 50)
	warmMeanUs := warmCompile.Microseconds() / int64(total)
	t.Logf("daemon-side compile: cold miss p50=%dus, warm mean=%dus per request", missP50us, warmMeanUs)
	if missP50us <= 0 || warmMeanUs*10 > missP50us {
		t.Errorf("warm requests not >=10x cheaper than cold misses in daemon-side compile time: miss p50=%dus warm mean=%dus",
			missP50us, warmMeanUs)
	}
}
