package main

import (
	"path/filepath"
	"strings"
	"testing"

	"sptc/internal/resilience"
)

// TestInjectSimulatorError arms the simulator inject point: sptsim has
// no fail-soft layer of its own, so the injected fault surfaces as a
// plain error exit.
func TestInjectSimulatorError(t *testing.T) {
	defer resilience.DisarmAll()
	code, _, stderr := runCmd(t,
		"-inject", "machine.run=error", "-quiet",
		filepath.Join("testdata", "demo.spl"))
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "injected fault") {
		t.Errorf("stderr should report the injected fault: %s", stderr)
	}
}

// TestInjectCompileDegrades arms the transform inject point: the
// affected loops are demoted, a warning lands on stderr, and the
// simulation still runs the (serial) program. fig2.spl is the paper's
// Figure 2 loop nest, which selects SPT loops at best, so the inject
// point is reached.
func TestInjectCompileDegrades(t *testing.T) {
	src := filepath.Join("testdata", "fig2.spl")
	if _, stdout, _ := runCmd(t, "-quiet", "-level", "best", src); !strings.Contains(stdout, "SPT loop") {
		t.Fatalf("clean compile selected no SPT loops; test is vacuous:\n%s", stdout)
	}
	defer resilience.DisarmAll()
	code, stdout, stderr := runCmd(t,
		"-inject", "core.pass2.transform=panic", "-quiet", "-level", "best", src)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "compile degraded") {
		t.Errorf("stderr should warn about the degraded compile: %s", stderr)
	}
	if strings.Contains(stdout, "SPT loop") {
		t.Errorf("demoted program should have no SPT loops:\n%s", stdout)
	}
}

// TestTimeoutFlag bounds the run with an already-expired deadline.
func TestTimeoutFlag(t *testing.T) {
	code, _, stderr := runCmd(t,
		"-timeout", "1ns", "-quiet",
		filepath.Join("testdata", "demo.spl"))
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "deadline") {
		t.Errorf("stderr should report the deadline: %s", stderr)
	}
}
