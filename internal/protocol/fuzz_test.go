package protocol

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
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

// chunkReader hands out data in chunks whose sizes cycle through split,
// then io.EOF. A split byte b gives (b%64+1) << (5*(b/64)) bytes, so one
// fuzz input mixes 1-byte dribbles with reads of tens of KiB.
type chunkReader struct {
	data, split []byte
	i           int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(r.split) > 0 {
		b := r.split[r.i%len(r.split)]
		r.i++
		n = min(n, (int(b)%64+1)<<(5*(b/64)))
	}
	n = copy(p, r.data[:min(n, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

// frameReaderAllocFactor bounds the frame reader's allocation per input
// byte, plus decodeAllocSlack for its start buffer and error value: its
// buffer doubles only when full of received bytes.
const frameReaderAllocFactor = 4

// FuzzFrameReader reads arbitrary bytes, split into fuzz-chosen chunk
// sizes, with a FrameReader and with ReadFrame. Both must yield the same
// frames and the same closing error, and the FrameReader's allocation
// must stay bounded by the bytes received, whatever lengths the headers
// announce. Run `go test -fuzz FuzzFrameReader ./internal/protocol/`
// to search.
func FuzzFrameReader(f *testing.F) {
	var stream []byte
	stream, _ = AppendFrame(stream, FrameHeartbeat, EncodeHeartbeat(1, 2))
	stream, _ = AppendFrame(stream, FrameBye, nil)
	stream, _ = AppendPageFrame(stream, 3, 0, testContentPage())
	f.Add(stream, []byte{})
	f.Add(stream, []byte{0, 1, 2, 255})
	f.Add(stream[:len(stream)-4], []byte{7})
	f.Add([]byte{byte(FramePage), 0, 0x10, 0, 0, 1, 2, 3}, []byte{200})
	f.Add([]byte{byte(FramePage), 0xff, 0xff, 0xff, 0xff}, []byte{1})
	large, _ := AppendFrame(nil, FramePage, bytes.Repeat([]byte{0x5a}, 40<<10))
	large = append(large, stream...)
	f.Add(large, []byte{255})
	f.Add(large, []byte{130, 63, 191})
	f.Fuzz(func(t *testing.T, data, split []byte) {
		type frame struct {
			t       FrameType
			payload []byte
		}
		var want []frame
		r := &chunkReader{data: data, split: split}
		var wantErr error
		for {
			ft, p, err := ReadFrame(r)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, frame{ft, p})
		}

		var before, after runtime.MemStats
		r = &chunkReader{data: data, split: split}
		mismatch := -1
		runtime.ReadMemStats(&before)
		fr := NewFrameReader(r)
		n := 0
		var err error
		for ; ; n++ {
			var ft FrameType
			var p []byte
			if ft, p, err = fr.Next(); err != nil {
				break
			}
			if mismatch < 0 && (n >= len(want) || ft != want[n].t || !bytes.Equal(p, want[n].payload)) {
				mismatch = n
			}
		}
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(frameReaderAllocFactor*len(data)+decodeAllocSlack); alloc > limit {
			t.Fatalf("reading %d bytes allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		if mismatch >= 0 || n != len(want) {
			t.Fatalf("FrameReader read %d frames (first mismatch %d), ReadFrame %d", n, mismatch, len(want))
		}
		if err.Error() != wantErr.Error() || errors.Is(err, ErrFrame) != errors.Is(wantErr, ErrFrame) {
			t.Fatalf("FrameReader ended with %v, ReadFrame with %v", err, wantErr)
		}
	})
}
