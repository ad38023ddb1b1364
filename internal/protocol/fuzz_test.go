package protocol

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

// decodeAllocFactor bounds one decode's allocation per input byte, plus
// decodeAllocSlack for its fixed cost (the message value, a
// batch's request table, an error value). Every decoded string, byte
// slice, element and embedded message consumes input bytes, so a decode
// allocating beyond this bound is sizing memory from a count the input
// merely claims.
const (
	decodeAllocFactor = 32
	decodeAllocSlack  = 8 << 10
)

func decodeAs[M any](data []byte) (any, error) { return Decode[M](data) }

var messageDecoders = []func([]byte) (any, error){
	decodeAs[RegistrationPage], decodeAs[RegistrationSubmit], decodeAs[LoginPage],
	decodeAs[LoginSubmit], decodeAs[ContentPage], decodeAs[PageRequest],
	decodeAs[ResyncRequest], decodeAs[ResumeSubmit], decodeAs[StreamHello],
	decodeAs[StreamWelcome], decodeAs[PolicyPush],
}

var payloadDecoders = []func([]byte) (any, error){
	decodeAs[TouchBatch], decodeAs[PageFrame], decodeAs[ResumeFrame],
	decodeAs[ResyncFrame], decodeAs[Ack], decodeAs[Heartbeat],
}

// addGoldenSeeds seeds a fuzz target with the checked-in wire bytes of
// every message and frame payload.
func addGoldenSeeds(f *testing.F) {
	file, err := os.Open("testdata/wire.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		_, hx, _ := strings.Cut(sc.Text(), " ")
		b, err := hex.DecodeString(hx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
}

// checkDecoders runs every decoder on data and asserts the codec's
// contract: no panic; allocation bounded by the input; a failure is
// ErrBinaryDecode; and a success re-encodes to exactly data. The last
// makes each decoder accept only canonical encodings, so decode then
// encode then decode is at a fixed point after one step.
func checkDecoders(t *testing.T, data []byte, decoders []func([]byte) (any, error)) {
	got := make([]any, len(decoders))
	errs := make([]error, len(decoders))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, dec := range decoders {
		got[i], errs[i] = dec(data)
	}
	runtime.ReadMemStats(&after)
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(decoders)*(decodeAllocFactor*len(data)+decodeAllocSlack)); alloc > limit {
		t.Fatalf("%d decodes of %d bytes allocated %d bytes, limit %d", len(decoders), len(data), alloc, limit)
	}
	for i, err := range errs {
		if err != nil {
			if !errors.Is(err, ErrBinaryDecode) {
				t.Fatalf("decode returned %v, want nil or ErrBinaryDecode", err)
			}
			continue
		}
		again, err := EncodeBinary(got[i])
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", got[i], err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded %T re-encodes differently:\n in %x\nout %x", got[i], data, again)
		}
	}
}

// FuzzDecode fuzzes Decode for every message type. Its checked-in
// corpus (testdata/fuzz/FuzzDecode) replays under plain `go test`; run
// `go test -fuzz FuzzDecode ./internal/protocol/` to search.
func FuzzDecode(f *testing.F) {
	addGoldenSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data, messageDecoders)
	})
}

// FuzzDecodePayload fuzzes Decode for every frame payload; run
// `go test -fuzz FuzzDecodePayload ./internal/protocol/` to search.
func FuzzDecodePayload(f *testing.F) {
	addGoldenSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data, payloadDecoders)
	})
}
