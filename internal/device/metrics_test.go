package device

import (
	"os"
	"strings"
	"testing"
)

// TestMetricsSchemaGolden pins the device's telemetry columns to the
// checked-in list: a rename, reorder or removal fails, while new
// columns appended after the pinned ones pass (docs/telemetry.md
// "Schema registry").
func TestMetricsSchemaGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_schema.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	got := newFixture(t, nil).dev.MetricsSchema()
	if len(got) < len(want) {
		t.Fatalf("schema has %d columns, golden list pins %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("column %d is %q, golden list pins %q", i, got[i], name)
		}
	}
}

// TestAppendMetricsZeroAlloc: sampling the device row into a reused
// slice allocates nothing, on the streamed transport whose connection
// stats feed the last columns.
func TestAppendMetricsZeroAlloc(t *testing.T) {
	fx, _ := newStreamFixture(t, nil)
	buf := fx.dev.AppendMetrics(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = fx.dev.AppendMetrics(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendMetrics allocates %.1f times per row", allocs)
	}
}
