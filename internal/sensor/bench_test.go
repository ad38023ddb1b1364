package sensor

import (
	"math"
	"testing"

	"trust/internal/geom"
	"trust/internal/sim"
)

func benchField(p geom.Point) float64 { return math.Cos(p.X * 14) }

func BenchmarkScanFullArray(b *testing.B) {
	arr, err := New(FLockConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	region := arr.FullRegion()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Scan(benchField, region, ScanOptions{})
	}
}

func BenchmarkScanTouchWindow(b *testing.B) {
	arr, err := New(FLockConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	region := arr.RegionAround(geom.Point{X: 4, Y: 4}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Scan(benchField, region, ScanOptions{})
	}
}

func BenchmarkBitImageOnes(b *testing.B) {
	img := NewBitImage(160, 160)
	for i := 0; i < 160; i += 2 {
		for j := 0; j < 160; j += 3 {
			img.Set(i, j)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Ones()
	}
}

// timingSink keeps BenchmarkTiming's inlined call from being
// eliminated.
var timingSink ScanResult

// BenchmarkTiming measures the readout accounting alone, which is all
// the statistical capture path pays per touch.
func BenchmarkTiming(b *testing.B) {
	arr, err := New(FLockConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	region := arr.RegionAround(geom.Point{X: 4, Y: 4}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timingSink = arr.Timing(region, ScanOptions{})
	}
}
