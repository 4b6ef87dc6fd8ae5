package evalharness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateClaims = flag.Bool("update", false, "rewrite testdata/claims.golden")

// TestClaimsGolden runs the full suite and compares which of the paper's
// claims hold with testdata/claims.golden. A claim that flips fails the
// test until the golden is rewritten (-update) and the reason is written
// down in CHANGES.md and EXPERIMENTS.md.
func TestClaimsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile+simulate sweep")
	}
	opt := DefaultEvalOptions()
	opt.Workers = 2
	suite, err := RunSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range Claims(suite) {
		status := "fails"
		if c.Holds {
			status = "holds"
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\n", status, c.Figure, c.Claim)
	}
	path := filepath.Join("testdata", "claims.golden")
	if *updateClaims {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		var sb strings.Builder
		suite.WriteClaims(&sb)
		t.Errorf("claims changed:\n--- got ---\n%s--- want ---\n%s\n%s", got, want, sb.String())
	}
}
