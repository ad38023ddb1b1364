package ftdc

import (
	"errors"
	"runtime"
	"testing"
)

// readAllocFactor bounds Read's allocation per input byte, plus
// readAllocSlack for the fixed cost of one decode (the Data header, an
// error value). Every decoded name, column and value consumes at least
// one input byte, so a decode allocating beyond this bound is sizing
// memory from a count the capture merely claims.
const (
	readAllocFactor = 128
	readAllocSlack  = 8 << 10
)

// FuzzRead asserts that decoding arbitrary bytes never panics and never
// allocates more than a small multiple of the input length. Its
// checked-in corpus (testdata/fuzz/FuzzRead) replays under plain
// `go test`; run `go test -fuzz=FuzzRead ./internal/ftdc` to search.
func FuzzRead(f *testing.F) {
	c := NewCapture(NewSchema([]string{"accepted", "rejected", "depth"}))
	for i := int64(0); i < 40; i++ {
		c.Sample(i*1000, []int64{i * 3, i % 5, 100 - i})
	}
	capture := c.Bytes()
	f.Add(capture)
	f.Add(capture[:len(capture)-3])
	f.Add(append(append([]byte(nil), capture...), capture...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := Read(data)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read returned %v, want nil or ErrCorrupt", err)
		}
		if err == nil && len(d.Cols) != len(d.Names) {
			t.Fatalf("decoded %d columns for %d names", len(d.Cols), len(d.Names))
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(readAllocFactor*len(data)+readAllocSlack); got > limit {
			t.Fatalf("Read of %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}
