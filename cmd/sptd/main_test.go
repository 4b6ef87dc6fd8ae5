package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sptc/internal/service"
)

// syncBuffer lets the test read the daemon's stdout while run() is
// still writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestFlagErrors(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"positional-arg", []string{"demo.spl"}, 2, "usage: sptd"},
		{"unknown-flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"bad-inject", []string{"-inject", "core.pass1.loop=frobnicate"}, 2, "unknown fault"},
		{"bad-timeout", []string{"-req-timeout", "soon"}, 2, "invalid value"},
		{"bad-queue-depth", []string{"-queue-depth", "many"}, 2, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// startDaemon runs the daemon on a free port and returns its base URL
// and a wait func that delivers SIGTERM and returns the exit code.
func startDaemon(t *testing.T, args ...string) (string, *syncBuffer, func() int) {
	t.Helper()
	stdout := &syncBuffer{}
	stderr := &syncBuffer{}
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, stderr)
	}()

	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not report a listen address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "sptd: listening on "); ok {
				url = strings.TrimSpace(rest)
			}
		}
		if url == "" {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return url, stdout, func() int {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case code := <-codeCh:
			return code
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon did not shut down after SIGTERM; stderr=%q", stderr.String())
			return -1
		}
	}
}

// TestServeCompileShutdown is the daemon lifecycle test: serve, answer
// a compile request byte-identically to the in-process executor, serve
// the repeat from the cache, expose metrics, and drain cleanly on
// SIGTERM.
func TestServeCompileShutdown(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "demo.spl"))
	if err != nil {
		t.Fatal(err)
	}
	url, stdout, wait := startDaemon(t)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	req := &service.CompileRequest{Name: "demo.spl", Source: string(src), Level: "best"}
	remote := &service.Remote{URL: url}

	got, err := remote.Compile(req)
	if err != nil {
		t.Fatalf("remote compile: %v", err)
	}
	if got.Meta.Cache != service.DispMiss {
		t.Errorf("first request disposition = %q, want %q", got.Meta.Cache, service.DispMiss)
	}

	want, err := service.ExecCompile(req, service.Env{})
	if err != nil {
		t.Fatalf("local compile: %v", err)
	}
	// Counters differ (the daemon traces its requests; the bare local Env
	// does not), so compare everything else via the wire encoding.
	got.Counters = want.Counters
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("remote response diverges from in-process executor:\nremote: %s\nlocal:  %s", gb, wb)
	}

	warm, err := remote.Compile(req)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if warm.Meta.Cache != service.DispHit {
		t.Errorf("repeat request disposition = %q, want %q", warm.Meta.Cache, service.DispHit)
	}
	warm.Counters = want.Counters
	if wb2, _ := json.Marshal(warm); !bytes.Equal(wb2, gb) {
		t.Errorf("cached response differs from computed response")
	}

	var m service.Metrics
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	mresp.Body.Close()
	if m.Requests != 2 || m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Errorf("metrics = %+v, want requests=2 misses=1 hits=1", m)
	}

	if code := wait(); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	if !strings.Contains(stdout.String(), "shut down cleanly") {
		t.Errorf("stdout missing clean-shutdown line: %q", stdout.String())
	}
}

// TestBadRequests pins the daemon's error answers: malformed JSON,
// unknown levels and unknown fields are 400s, never 500s, and the
// daemon keeps serving. An unknown field is a misspelt option or one
// the daemon no longer has; ignoring it would compile a default request.
func TestBadRequests(t *testing.T) {
	url, _, wait := startDaemon(t)
	defer wait()

	post := func(body string) (int, string) {
		resp, err := http.Post(url+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var eb struct {
			Kind string `json:"kind"`
		}
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb.Kind
	}

	if code, kind := post("{not json"); code != http.StatusBadRequest || kind != "request" {
		t.Errorf("malformed JSON: status=%d kind=%q, want 400 request", code, kind)
	}
	if code, kind := post(`{"name":"x","source":"func main() {}","level":"turbo"}`); code != http.StatusBadRequest || kind != "request" {
		t.Errorf("bad level: status=%d kind=%q, want 400 request", code, kind)
	}
	for _, opts := range []string{`{"disable_svpp":true}`, `{"counters_only":true}`} {
		body := `{"name":"x","source":"func main() {}","level":"best","options":` + opts + `}`
		if code, kind := post(body); code != http.StatusBadRequest || kind != "request" {
			t.Errorf("unknown option %s: status=%d kind=%q, want 400 request", opts, code, kind)
		}
	}
	if code, kind := post(`{"name":"x","source":"func main() { !!! }","level":"best"}`); code != http.StatusBadRequest || kind != "compile" {
		t.Errorf("parse error: status=%d kind=%q, want 400 compile", code, kind)
	}

	resp, err := http.Get(url + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after bad requests: %v", err)
	}
	resp.Body.Close()
}
