package evalharness

import (
	"strings"
	"testing"

	"sptc/internal/core"
)

// TestWriteMetricsEmpty ensures the metrics table renders for an empty
// suite without panicking.
func TestWriteMetricsEmpty(t *testing.T) {
	s := &SuiteResult{Levels: []core.Level{core.LevelBest}}
	var buf strings.Builder
	s.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "Per-job metrics") {
		t.Errorf("missing header:\n%s", buf.String())
	}
}
