package protocol

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func poolTestRequest(g, i int) *PageRequest {
	req := &PageRequest{
		Domain:       "pool.example",
		Account:      fmt.Sprintf("acct-%d-%d", g, i),
		SessionID:    fmt.Sprintf("sess-%d-%d", g, i),
		Nonce:        Nonce(fmt.Sprintf("nonce-%d-%d", g, i)),
		Action:       "view-statement",
		RiskVerified: g,
		RiskWindow:   12,
		MAC:          []byte{byte(g), byte(i), byte(i >> 8), 0xaa},
	}
	for k := range req.FrameHash {
		req.FrameHash[k] = byte(g*31 + i + k)
	}
	return req
}

// TestEncodeBinaryConcurrentIsolation hammers the pooled encoder from
// many goroutines with distinct messages and verifies every returned
// slice round-trips to its own message — catching any aliasing of the
// recycled encode buffers.
func TestEncodeBinaryConcurrentIsolation(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				req := poolTestRequest(g, i)
				data, err := EncodeBinary(req)
				if err != nil {
					t.Errorf("encode %d/%d: %v", g, i, err)
					return
				}
				// Interleave another encode before decoding: if the
				// pool handed back aliased bytes, this would clobber
				// data.
				if _, err := EncodeBinary(poolTestRequest(g, i+1)); err != nil {
					t.Errorf("interleaved encode %d/%d: %v", g, i, err)
					return
				}
				got, err := Decode[PageRequest](data)
				if err != nil {
					t.Errorf("decode %d/%d: %v", g, i, err)
					return
				}
				if got.Account != req.Account || got.SessionID != req.SessionID ||
					got.Nonce != req.Nonce || got.FrameHash != req.FrameHash ||
					!bytes.Equal(got.MAC, req.MAC) {
					t.Errorf("round trip %d/%d corrupted: %+v", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEncodeBinaryOversizeNotPooled pins the pool's size cap: a message
// that inflates the encode buffer past the cap still encodes correctly
// (the buffer is simply dropped instead of recycled).
func TestEncodeBinaryOversizeNotPooled(t *testing.T) {
	big := &PageRequest{
		Domain:  "pool.example",
		Account: string(bytes.Repeat([]byte("x"), 128<<10)),
		Action:  "home",
		MAC:     []byte{1},
	}
	data, err := EncodeBinary(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode[PageRequest](data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Account != big.Account {
		t.Fatal("oversize message corrupted")
	}
	// A small message right after must be unaffected.
	small := poolTestRequest(0, 0)
	data, err = EncodeBinary(small)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = Decode[PageRequest](data); err != nil {
		t.Fatal(err)
	}
	if got.Account != small.Account {
		t.Fatal("post-oversize message corrupted")
	}
}

// BenchmarkEncodeBinaryPageRequest tracks the hot-path encode cost;
// the pooled writer should hold allocations to the returned slice.
func BenchmarkEncodeBinaryPageRequest(b *testing.B) {
	req := poolTestRequest(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBinary(req); err != nil {
			b.Fatal(err)
		}
	}
}
