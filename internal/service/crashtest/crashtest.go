// Package crashtest drives a real sptd binary through hard-kill /
// restart cycles: it builds the daemon, runs it against persistent
// cache files, SIGKILLs it mid-flight, restarts it, and gives tests the
// handles to assert the durability contract — salvage never fails, no
// torn entry is served, and a kill loses at most one flush window of
// cached work. The process-level loop lives here (not in the service
// package) because the contract under test is exactly the part an
// in-process test cannot reach: a kill that never unwinds the stack.
package crashtest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// BuildBinary compiles cmd/sptd into dir and returns the binary path.
// The repo root is located relative to this package's directory, so the
// build works from any test working directory inside the module.
func BuildBinary(dir string) (string, error) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("crashtest: repo root not at %s: %w", root, err)
	}
	bin := filepath.Join(dir, "sptd")
	cmd := exec.Command("go", "build", "-o", bin, "sptc/cmd/sptd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("crashtest: build sptd: %v\n%s", err, out)
	}
	return bin, nil
}

// Daemon is one running sptd process.
type Daemon struct {
	cmd *exec.Cmd
	url string

	mu  sync.Mutex
	log strings.Builder
	err error // wait result, once dead

	done chan struct{}
}

// Start launches bin with args plus "-addr 127.0.0.1:0" and waits for
// its listening line. The caller owns the process: Kill or Stop it. On
// Linux the daemon is also killed when the calling process dies.
func Start(bin string, args ...string) (*Daemon, error) {
	d := &Daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	orphanProof(d.cmd)
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = d.cmd.Stdout // interleave; both end up in the log
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}

	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line)
			d.log.WriteByte('\n')
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case urlCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
		close(d.done)
	}()
	go func() {
		err := d.cmd.Wait()
		d.mu.Lock()
		d.err = err
		d.mu.Unlock()
	}()

	select {
	case u := <-urlCh:
		d.url = u
		return d, nil
	case <-d.done:
		d.Kill()
		return nil, fmt.Errorf("crashtest: sptd exited before listening:\n%s", d.Output())
	case <-time.After(30 * time.Second):
		d.Kill()
		return nil, fmt.Errorf("crashtest: sptd did not listen within 30s:\n%s", d.Output())
	}
}

// URL returns the daemon's base URL.
func (d *Daemon) URL() string { return d.url }

// Output returns everything the daemon printed so far.
func (d *Daemon) Output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// Kill delivers SIGKILL — the hard crash under test: no signal handler,
// no deferred Save, no stack unwind — and waits for the process to die.
func (d *Daemon) Kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
	}
}

// Stop shuts the daemon down gracefully (SIGTERM, drain, final Save).
func (d *Daemon) Stop() error {
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.Kill()
		return fmt.Errorf("crashtest: graceful stop timed out:\n%s", d.Output())
	}
	return nil
}

// Metrics is the subset of the daemon's /metrics payload the chaos
// loop asserts on.
type Metrics struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Flushes     int64 `json:"flushes"`
	FlushErrors int64 `json:"flush_errors"`
}

// Metrics fetches the daemon's current counters.
func (d *Daemon) Metrics() (Metrics, error) {
	var m Metrics
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

// WaitFlushes polls until the flush counter reaches at least n. Because
// the counter only advances when BOTH stores flushed cleanly, flushes>=n
// proves everything cached before flush n is on disk.
func (d *Daemon) WaitFlushes(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, err := d.Metrics()
		if err == nil && m.Flushes >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("crashtest: flushes did not reach %d within %v (last: %+v, err: %v)", n, timeout, m, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
