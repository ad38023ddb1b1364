package webserver

import (
	"os"
	"strings"
	"testing"
)

// TestMetricsSchemaGolden pins the server's telemetry columns to the
// checked-in list: a rename, reorder or removal fails, while new
// columns appended after the pinned ones pass (docs/telemetry.md
// "Schema registry").
func TestMetricsSchemaGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_schema.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	got := newRig(t).server.MetricsSchema()
	if len(got) < len(want) {
		t.Fatalf("schema has %d columns, golden list pins %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("column %d is %q, golden list pins %q", i, got[i], name)
		}
	}
}

// TestAppendMetricsZeroAlloc: sampling the server row into a reused
// slice allocates nothing, with every column block populated.
func TestAppendMetricsZeroAlloc(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	r.login(t, "acct")
	buf := r.server.AppendMetrics(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = r.server.AppendMetrics(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendMetrics allocates %.1f times per row", allocs)
	}
}
