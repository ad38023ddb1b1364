// Benchmarks regenerating every table and figure of the paper plus the
// extension experiments (one sub-benchmark per artifact, per DESIGN.md
// section 4). Each iteration rebuilds the artifact from scratch, so
// ns/op measures the full simulation cost; the artifact text itself is
// attached via b.Log on the first iteration (visible with -v) and via
// cmd/benchtab.
package trust

import (
	"testing"
	"time"

	"trust/internal/analysis"
	"trust/internal/ftdc"
	"trust/internal/harness"
)

// BenchmarkArtifacts regenerates every harness.Experiments entry as
// one sub-benchmark named by its Bench field, the same name its row
// carries in BENCH_harness.json.
func BenchmarkArtifacts(b *testing.B) {
	for _, e := range harness.Experiments {
		b.Run(e.Bench, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := e.Run(harness.Seed)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					// Rendering the artifact into the log is not part of
					// the simulation cost being measured.
					b.StopTimer()
					b.Log("\n" + r.String())
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkTrustlint measures the wall time of the full static-analysis
// sweep (cmd/trustlint over every package in the module), so analyzer
// cost is tracked in BENCH_harness.json like the artifact generators.
func BenchmarkTrustlint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		findings, err := analysis.Lint(".", "./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) > 0 {
			b.Fatalf("tree has %d trustlint finding(s); run go run ./cmd/trustlint ./...", len(findings))
		}
	}
}

// BenchmarkFTDCSample measures the telemetry sampling hot path — one
// server-sized delta row (74 columns) per op. The allocs/op figure is
// the zero-alloc claim behind leaving capture enabled in every sweep;
// benchtab -json records it in BENCH_harness.json as FTDCSample.
func BenchmarkFTDCSample(b *testing.B) {
	names := make([]string, 74)
	for i := range names {
		names[i] = "metric_column_" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	c := ftdc.NewCapture(ftdc.NewSchema(names))
	vals := make([]int64, len(names))
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += int64(time.Millisecond)
		for j := range vals {
			vals[j] += int64(j&7) - 3
		}
		c.Sample(now, vals)
	}
}
