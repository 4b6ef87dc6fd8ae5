package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"sptc/internal/benchprog"
	"sptc/internal/incr"
	"sptc/internal/service"
	"sptc/internal/trace"
)

// serviceSize shapes the service workload.
type serviceSize struct {
	clients   int // closed-loop clients
	perClient int // requests per client per round
	missEvery int // one miss in every missEvery requests of a client
}

// serviceFull is the size the benchmark runs: per client and round, 75
// hits (each warm key five times) and 5 misses (each program once).
var serviceFull = serviceSize{clients: 2, perClient: 80, missEvery: 16}

// servicePrograms are the suite programs the service workload requests:
// the five cheapest to compile and simulate, so that a miss costs
// 0.1-0.3 s and no single program dominates the cold samples.
var servicePrograms = []string{"bzip2", "gap", "gzip", "parser", "twolf"}

// serviceKey is one request the daemon can answer.
type serviceKey struct {
	prog  string
	kind  string // "compile" or "simulate"
	level string
}

// serviceReq is one planned request of a client's sequence: a repeat of
// a warm key (a cache hit) or a fresh name for a program (a miss).
type serviceReq struct {
	warm int    // index into the warm keys; -1 for a miss
	prog string // the miss's program
}

// serviceWork is the service workload: an in-process sptd daemon on
// loopback (2 workers, response cache and incr store on files, a flush
// every flushEvery misses, no fsync) driven by closed-loop
// service.Remote clients. Set-up starts the daemon and warms its key
// set with one client in seeded order. Each client then repeats a
// seeded sequence in which one request in missEvery asks for a fresh
// name of a program (a full compile+simulate miss, programs taken in
// turn) and the rest repeat warm keys (cache hits).
type serviceWork struct {
	size    serviceSize
	keys    []serviceKey // warm keys, in warm-up order
	seqs    [][]serviceReq
	srv     *service.Server
	hc      *http.Client
	cancel  context.CancelFunc
	done    chan error
	rounds  int
	names   map[string]serviceKey // every fresh name requested
	spd     float64
	prevSnp service.Metrics
}

const serviceFlushEvery = 4

func newService(seed int64, dir string) (workload, error) {
	return newServiceSized(seed, dir, serviceFull)
}

func newServiceSized(seed int64, dir string, size serviceSize) (*serviceWork, error) {
	w := &serviceWork{size: size, names: map[string]serviceKey{}}
	w.keys, w.seqs = planService(seed, size)
	srv, err := service.NewServer(service.Config{
		Addr:        "127.0.0.1:0",
		Workers:     2,
		CachePath:   filepath.Join(dir, "responses.cache"),
		IncrPath:    filepath.Join(dir, "loops.incr"),
		FlushEveryN: serviceFlushEvery,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.srv, w.cancel, w.done = srv, cancel, make(chan error, 1)
	go func() { w.done <- srv.Run(ctx) }()
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: size.clients}}

	cl := w.client()
	for _, k := range w.keys {
		if _, err := send(cl, k, programName(k.prog)); err != nil {
			w.close()
			return nil, fmt.Errorf("warm %v: %w", k, err)
		}
	}
	w.prevSnp = srv.Snapshot()
	return w, nil
}

// planService draws the warm keys' warm-up order and each client's
// request sequence: blocks of missEvery requests, each one seeded
// permutation of the warm keys (cache hits) with one miss inserted at a
// seeded position, the misses taking the programs in a seeded order. So
// every seed hits each warm key, and misses each program, equally often.
func planService(seed int64, size serviceSize) ([]serviceKey, [][]serviceReq) {
	rng := rand.New(rand.NewSource(seed))
	var keys []serviceKey
	for _, p := range servicePrograms {
		keys = append(keys,
			serviceKey{p, "compile", "best"},
			serviceKey{p, "simulate", "best"},
			serviceKey{p, "simulate", "base"})
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var seqs [][]serviceReq
	for c := 0; c < size.clients; c++ {
		order := rng.Perm(len(servicePrograms))
		var seq []serviceReq
		for b := 0; b < size.perClient/size.missEvery; b++ {
			block := make([]serviceReq, 0, size.missEvery)
			for _, k := range rng.Perm(len(keys))[:size.missEvery-1] {
				block = append(block, serviceReq{warm: k})
			}
			miss := rng.Intn(size.missEvery)
			block = append(block[:miss], append([]serviceReq{{warm: -1, prog: servicePrograms[order[b%len(order)]]}}, block[miss:]...)...)
			seq = append(seq, block...)
		}
		seqs = append(seqs, seq)
	}
	return keys, seqs
}

func programName(prog string) string { return prog + ".spl" }

func (w *serviceWork) client() *service.Remote {
	return &service.Remote{URL: w.srv.URL(), HTTPClient: w.hc, Retry: service.DefaultRetryPolicy()}
}

// request builds the wire request for a key under a source name.
func request(k serviceKey, name string) any {
	src := benchprog.ByName(k.prog).Source
	if k.kind == "compile" {
		return &service.CompileRequest{Name: name, Source: src, Level: k.level}
	}
	return &service.SimulateRequest{Name: name, Source: src, Level: k.level}
}

// served is one response as the client saw it.
type served struct {
	meta service.RespMeta
	sim  *service.SimSummary
	cnt  service.Counters
}

// send issues one request through a client.
func send(cl service.Client, k serviceKey, name string) (served, error) {
	switch req := request(k, name).(type) {
	case *service.CompileRequest:
		resp, err := cl.Compile(req)
		if err != nil {
			return served{}, err
		}
		return served{meta: resp.Meta, cnt: resp.Counters}, nil
	case *service.SimulateRequest:
		resp, err := cl.Simulate(req)
		if err != nil {
			return served{}, err
		}
		return served{meta: resp.Meta, sim: resp.Sim, cnt: resp.Compile.Counters}, nil
	}
	return served{}, fmt.Errorf("unknown request kind %q", k.kind)
}

// clientStats is what one client measured in a round.
type clientStats struct {
	cold, warm        []time.Duration
	exec, transport   time.Duration
	warmExec, warmLat time.Duration
	retries, planned  int
	layers            map[string]float64
	names             map[string]serviceKey
	err               error
}

func (w *serviceWork) round(tr *trace.Tracer) (*roundResult, error) {
	r := w.rounds
	w.rounds++
	stats := make([]clientStats, w.size.clients)
	var wg sync.WaitGroup
	for c := range w.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = w.runClient(c, r, tr.StartTrack(fmt.Sprintf("client%d", c)))
		}(c)
	}
	wg.Wait()

	rr := &roundResult{clients: w.size.clients, layers: map[string]float64{}, counts: map[string]float64{}}
	var exec, transport, warmExec, warmLat time.Duration
	for _, st := range stats {
		if st.err != nil {
			return nil, st.err
		}
		rr.cold = append(rr.cold, st.cold...)
		rr.warm = append(rr.warm, st.warm...)
		exec += st.exec
		transport += st.transport
		warmExec += st.warmExec
		warmLat += st.warmLat
		rr.layers["service.retries"] += float64(st.retries)
		for k, v := range st.layers {
			rr.layers[k] += v
		}
		for n, k := range st.names {
			w.names[n] = k
		}
		rr.counts["planned_misses"] += float64(st.planned)
	}
	rr.ops = len(rr.cold) + len(rr.warm)

	snp := w.srv.Snapshot()
	prev := w.prevSnp
	w.prevSnp = snp
	hits, misses, joins := snp.CacheHits-prev.CacheHits, snp.CacheMisses-prev.CacheMisses, snp.StampedeJoins-prev.StampedeJoins
	rr.counts["hits"], rr.counts["misses"], rr.counts["joins"] = float64(hits), float64(misses), float64(joins)
	if int(hits+misses+joins) != rr.ops || misses != int64(rr.counts["planned_misses"]) {
		rr.problems = append(rr.problems, fmt.Sprintf("round %d: daemon counted %d hits + %d misses + %d joins for %d requests with %v planned misses",
			r, hits, misses, joins, rr.ops, rr.counts["planned_misses"]))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rr.layers["service.exec_ms"] = ms(exec)
	rr.layers["service.transport_ms"] = ms(transport)
	if warmLat > 0 {
		rr.layers["service.warm_transport_pct"] = 100 * float64(warmLat-warmExec) / float64(warmLat)
	}
	rr.layers["service.hits"] = float64(hits)
	rr.layers["service.misses"] = float64(misses)
	rr.layers["service.joins"] = float64(joins)
	rr.layers["service.hit_ratio"] = float64(hits) / float64(max(rr.ops, 1))
	rr.layers["service.flushes"] = float64(snp.Flushes - prev.Flushes)
	rr.layers["service.queue_rejects"] = float64(snp.QueueRejects - prev.QueueRejects)
	return rr, nil
}

// runClient sends client c's sequence once, closed loop.
func (w *serviceWork) runClient(c, round int, tk *trace.Track) clientStats {
	st := clientStats{layers: map[string]float64{}, names: map[string]serviceKey{}}
	cl := w.client()
	for i, q := range w.seqs[c] {
		k, name := serviceKey{}, ""
		if q.warm >= 0 {
			k = w.keys[q.warm]
			name = programName(k.prog)
		} else {
			k = serviceKey{q.prog, "simulate", "best"}
			name = fmt.Sprintf("%s-c%d-r%d-%d.spl", q.prog, c, round, i)
			st.names[name] = k
			st.planned++
		}
		sp := tk.Start("request." + k.kind)
		start := time.Now()
		s, err := send(cl, k, name)
		lat := time.Since(start)
		sp.Str("cache", s.meta.Cache).End()
		if err != nil {
			st.err = fmt.Errorf("client %d request %d (%s): %w", c, i, name, err)
			return st
		}
		exec := s.meta.Compile + s.meta.Simulate
		st.exec += exec
		st.transport += lat - exec
		st.retries += s.meta.Retries
		if s.meta.Cache != service.DispMiss {
			st.warm = append(st.warm, lat)
			st.warmExec += exec
			st.warmLat += lat
			continue
		}
		st.cold = append(st.cold, lat)
		// Work the daemon did for the miss, as its response reports it.
		st.layers["machine.ms"] += float64(s.meta.Simulate) / float64(time.Millisecond)
		if s.sim != nil {
			st.layers["machine.sim_instructions"] += float64(s.sim.Ops)
			st.layers["machine.branch_misses"] += float64(s.sim.BranchMisses)
			st.layers["machine.mem_accesses"] += float64(s.sim.MemAccesses)
		}
		st.layers["partition.search_nodes"] += float64(s.cnt.SearchNodes)
		st.layers["cost.evals"] += float64(s.cnt.CostEvals)
		st.layers["cost.recomputes"] += float64(s.cnt.Recomputes)
		st.layers["partition.dedup_hits"] += float64(s.cnt.DedupHits)
		st.layers["incr.hits"] += float64(s.cnt.IncrHits)
		st.layers["incr.misses"] += float64(s.cnt.IncrMisses)
		st.layers["incr.invalidated"] += float64(s.cnt.IncrInvalidated)
	}
	return st
}

// check fetches the daemon's body for every key and fresh name the run
// requested (all cache hits by now) and requires it to be byte-identical
// to service.Local executing the same request sequence in process. Every
// simulated output must equal interp's.
func (w *serviceWork) check(rounds []*roundResult) (int, []string) {
	var probs []string
	// Replay the warm-up through Local with its own incr store: each
	// warm key's body, then the body a miss of each program gets once
	// every warm key is in the store.
	local := &service.Local{Env: service.Env{Incr: incr.New()}}
	tr := trace.New()
	want := map[serviceKey][]byte{}
	outs := map[string]string{}
	cycles := map[serviceKey]float64{}
	exec := func(k serviceKey, name string) ([]byte, error) {
		local.Env.Track = tr.StartTrack(name)
		var resp any
		var err error
		switch req := request(k, name).(type) {
		case *service.CompileRequest:
			resp, err = local.Compile(req)
		case *service.SimulateRequest:
			var sr *service.SimulateResponse
			sr, err = local.Simulate(req)
			if err == nil {
				resp = sr
				cycles[k] = sr.Sim.Cycles
				if prev, ok := outs[k.prog]; ok && prev != sr.Output {
					return nil, fmt.Errorf("%s: %s output differs from base", name, k.level)
				}
				outs[k.prog] = sr.Output
			}
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	}
	for _, k := range w.keys {
		b, err := exec(k, programName(k.prog))
		if err != nil {
			return rounds[0].ops * len(rounds), []string{err.Error()}
		}
		want[k] = b
	}
	missWant := map[string][]byte{}
	failed := 0
	compare := func(k serviceKey, name string, ref []byte) {
		got, err := w.fetch(k, name)
		if err != nil || !bytes.Equal(got, ref) {
			failed++
			probs = append(probs, fmt.Sprintf("%s %s@%s: daemon body differs from service.Local (%v)", name, k.kind, k.level, err))
		}
	}
	for _, k := range w.keys {
		compare(k, programName(k.prog), want[k])
	}
	for name, k := range w.names {
		ref, ok := missWant[k.prog]
		if !ok {
			b, err := exec(k, "miss")
			if err != nil {
				return failed + 1, append(probs, err.Error())
			}
			ref, missWant[k.prog] = b, b
		}
		compare(k, name, renamed(ref, name))
	}
	logSum := 0.0
	for _, p := range servicePrograms {
		ref, err := interpOutput(p, benchprog.ByName(p).Source)
		if err != nil || outs[p] != ref {
			failed++
			probs = append(probs, fmt.Sprintf("%s: simulated output differs from interp (%v)", p, err))
		}
		logSum += math.Log(cycles[serviceKey{p, "simulate", "base"}] / cycles[serviceKey{p, "simulate", "best"}])
	}
	w.spd = math.Exp(logSum / float64(len(servicePrograms)))
	return failed, probs
}

// renamed re-encodes a simulate response body under another source name.
func renamed(body []byte, name string) []byte {
	var resp service.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil
	}
	resp.Name = name
	resp.Compile.Name = name
	b, _ := json.Marshal(&resp)
	return b
}

// fetch posts one request and returns the raw response body.
func (w *serviceWork) fetch(k serviceKey, name string) ([]byte, error) {
	b, err := json.Marshal(request(k, name))
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Post(w.srv.URL()+"/v1/"+k.kind, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sptd-Cache") != service.DispHit {
		return nil, fmt.Errorf("status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Sptd-Cache"))
	}
	return body, nil
}

func (w *serviceWork) speedup() float64 { return w.spd }

// close shuts the daemon down and waits until it has exited.
func (w *serviceWork) close() {
	if w.cancel == nil {
		return
	}
	w.cancel()
	<-w.done
	w.hc.CloseIdleConnections()
	w.cancel = nil
}
