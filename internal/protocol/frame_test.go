package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"trust/internal/frame"
)

func testContentPage() *ContentPage {
	return &ContentPage{
		Domain:    "www.xyz.com",
		SessionID: "sess-1",
		Nonce:     "nonce-1",
		Account:   "acct",
		Page:      &frame.Page{URL: "https://www.xyz.com/home", Title: "home", Body: "hello", HeightPX: 800},
		MAC:       []byte{1, 2, 3, 4},
	}
}

func testPageRequest(action string) *PageRequest {
	return &PageRequest{
		Domain:       "www.xyz.com",
		Account:      "acct",
		SessionID:    "sess-1",
		Nonce:        "nonce-1",
		Action:       action,
		RiskVerified: 2,
		RiskWindow:   12,
		MAC:          []byte{9, 9, 9},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[FrameType][]byte{
		FrameHello:     []byte("hello payload"),
		FrameHeartbeat: EncodeHeartbeat(7, 3*time.Second),
		FrameBye:       nil,
	}
	for ft, p := range payloads {
		buf.Reset()
		if err := WriteFrame(&buf, ft, p); err != nil {
			t.Fatalf("write %s: %v", ft, err)
		}
		gt, gp, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", ft, err)
		}
		if gt != ft || !bytes.Equal(gp, p) {
			t.Fatalf("%s round trip: got %s %q", ft, gt, gp)
		}
	}
}

func TestFrameOversizedPayloadRejected(t *testing.T) {
	if err := WriteFrame(io.Discard, FramePage, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized write: %v", err)
	}
	// A corrupted length prefix must fail before any payload is read.
	hdr := []byte{byte(FramePage), 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized read: %v", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePage, []byte("full payload")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, err := ReadFrame(bytes.NewReader(cut)); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated read: %v", err)
	}
}

// TestFrameSurvivesTornWrites verifies the reader reassembles a frame
// that arrives in arbitrary pieces — the wire is a byte stream, and
// the codec must not depend on write boundaries.
func TestFrameSurvivesTornWrites(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c2.Close()
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FrameAck, EncodeAck(3, "bad-nonce", "detail")); err != nil {
			t.Error(err)
			return
		}
		raw := buf.Bytes()
		for i := 0; i < len(raw); i += 2 { // dribble 2 bytes at a time
			end := i + 2
			if end > len(raw) {
				end = len(raw)
			}
			if _, err := c2.Write(raw[i:end]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	ft, payload, err := ReadFrame(c1)
	if err != nil {
		t.Fatalf("read torn frame: %v", err)
	}
	if ft != FrameAck {
		t.Fatalf("got %s", ft)
	}
	ack, err := Decode[Ack](payload)
	if err != nil || ack.Seq != 3 || ack.Code != "bad-nonce" || ack.Detail != "detail" {
		t.Fatalf("ack decode: %+v %v", ack, err)
	}
	wg.Wait()
}

func TestTouchBatchRoundTrip(t *testing.T) {
	reqs := []*PageRequest{testPageRequest("home"), testPageRequest("view-statement")}
	payload, err := EncodeTouchBatch(42, 9*time.Second, reqs)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Decode[TouchBatch](payload)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Seq != 42 || tb.Now != 9*time.Second || len(tb.Requests) != 2 {
		t.Fatalf("batch header: %+v", tb)
	}
	for i, req := range tb.Requests {
		if req.Action != reqs[i].Action || req.Nonce != reqs[i].Nonce || !bytes.Equal(req.MAC, reqs[i].MAC) {
			t.Fatalf("request %d mismatch: %+v", i, req)
		}
	}
}

func TestTouchBatchBounds(t *testing.T) {
	if _, err := EncodeTouchBatch(1, 0, nil); !errors.Is(err, ErrRange) {
		t.Fatalf("empty batch: %v", err)
	}
	big := make([]*PageRequest, maxBatchRequests+1)
	for i := range big {
		big[i] = testPageRequest("home")
	}
	if _, err := EncodeTouchBatch(1, 0, big); !errors.Is(err, ErrRange) {
		t.Fatalf("oversized batch: %v", err)
	}
	// Trailing garbage after a valid batch must be rejected.
	payload, err := EncodeTouchBatch(1, 0, big[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode[TouchBatch](append(payload, 0xff)); !errors.Is(err, ErrBinaryDecode) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestPageFrameRoundTrip(t *testing.T) {
	cp := testContentPage()
	frame, err := AppendPageFrame(nil, 7, 2, cp)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Decode[PageFrame](frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if pf.Seq != 7 || pf.Index != 2 || pf.Page.Nonce != cp.Nonce || pf.Page.Page.URL != cp.Page.URL {
		t.Fatalf("page frame: %+v", pf)
	}
}

// TestAppendFrameWireEquivalence pins the append-path encoders to the
// exact bytes the write-path encoders produce: the batch response loop
// builds frames with AppendPageFrame/AppendFrame and must stay
// indistinguishable on the wire from per-frame WriteFrame calls.
func TestAppendFrameWireEquivalence(t *testing.T) {
	cp := testContentPage()
	payload, err := EncodeBinary(&PageFrame{Seq: 7, Index: 2, Page: cp})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteFrame(&want, FramePage, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&want, FrameAck, EncodeAck(7, "revoked", "gone")); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := AppendPageFrame(prefix, 7, 2, cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err = AppendFrame(got, FrameAck, EncodeAck(7, "revoked", "gone"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatal("append encoders clobbered the destination prefix")
	}
	if !bytes.Equal(got[len(prefix):], want.Bytes()) {
		t.Fatal("append-path frames differ from WriteFrame bytes")
	}
	if _, err := AppendFrame(nil, FramePage, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized append payload: %v", err)
	}
}

func TestResyncFrameRoundTrip(t *testing.T) {
	rr := &ResyncRequest{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{5}}
	payload, err := EncodeResyncFrame(11, rr)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Decode[ResyncFrame](payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := rf.Request; rf.Seq != 11 || got.SessionID != rr.SessionID || !bytes.Equal(got.MAC, rr.MAC) {
		t.Fatalf("resync frame: %d %+v", rf.Seq, got)
	}
}

func TestStreamNonceDeterministicAndKeyed(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	seed := []byte("seed-0123456789ab")
	a := StreamNonce(key, seed, 5)
	if b := StreamNonce(key, seed, 5); a != b {
		t.Fatal("StreamNonce not deterministic")
	}
	if b := StreamNonce(key, seed, 6); a == b {
		t.Fatal("consecutive chain nonces collide")
	}
	if b := StreamNonce(bytes.Repeat([]byte{8}, 32), seed, 5); a == b {
		t.Fatal("chain nonce independent of key")
	}
	if b := StreamNonce(key, []byte("seed-0123456789ac"), 5); a == b {
		t.Fatal("chain nonce independent of seed")
	}
	if len(a) != 32 { // 16 bytes hex-encoded, same shape as minted nonces
		t.Fatalf("nonce length %d", len(a))
	}
}

func TestStreamHelloWelcomeBinaryRoundTrip(t *testing.T) {
	stable := func(name string, data []byte, back any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		d2, err := EncodeBinary(back)
		if err != nil {
			t.Fatalf("%s re-encode: %v", name, err)
		}
		if !bytes.Equal(data, d2) {
			t.Fatalf("%s not byte-stable", name)
		}
	}
	hello, err := EncodeBinary(&StreamHello{Domain: "www.xyz.com", Account: "acct", SessionID: "s", MAC: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Decode[StreamHello](hello)
	stable("hello", hello, h, err)
	welcome, err := EncodeBinary(&StreamWelcome{Domain: "www.xyz.com", SessionID: "s", NonceSeed: []byte("0123456789abcdef"), Window: 12, MinVerified: 2, MAC: []byte{2}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Decode[StreamWelcome](welcome)
	stable("welcome", welcome, w, err)
	push, err := EncodeBinary(&PolicyPush{Domain: "www.xyz.com", SessionID: "s", Window: 8, MinVerified: 3, Seq: 4, MAC: []byte{3}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode[PolicyPush](push)
	stable("policy push", push, p, err)
}

func TestEncodeBinaryAppend(t *testing.T) {
	cp := testContentPage()
	direct, err := EncodeBinary(cp)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := EncodeBinaryAppend(prefix, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], direct) {
		t.Fatal("EncodeBinaryAppend does not append the EncodeBinary bytes")
	}
}

// TestFrameSeq pins the sequence peek every malformed-frame ack path
// relies on: seq-bearing frame types yield the leading 8 bytes, and
// everything else — wrong type or short payload — yields zero rather
// than garbage.
func TestFrameSeq(t *testing.T) {
	payload := binary.BigEndian.AppendUint64(nil, 0xCAFEBABE)
	payload = append(payload, 1, 2, 3)
	seqBearing := map[FrameType]bool{
		FrameTouchBatch: true, FramePage: true, FrameHeartbeat: true,
		FrameAck: true, FrameResync: true, FrameResume: true,
		FrameHello: false, FrameWelcome: false, FramePolicyPush: false,
		FrameBye: false,
	}
	for ft, want := range seqBearing {
		if got := ft.SeqBearing(); got != want {
			t.Errorf("%s.SeqBearing() = %v, want %v", ft, got, want)
		}
		wantSeq := uint64(0)
		if want {
			wantSeq = 0xCAFEBABE
		}
		if got := FrameSeq(ft, payload); got != wantSeq {
			t.Errorf("FrameSeq(%s) = %#x, want %#x", ft, got, wantSeq)
		}
	}
	if got := FrameSeq(FrameHeartbeat, payload[:7]); got != 0 {
		t.Errorf("FrameSeq on 7-byte payload = %#x, want 0", got)
	}
	if got := FrameSeq(FrameHeartbeat, nil); got != 0 {
		t.Errorf("FrameSeq on nil payload = %#x, want 0", got)
	}
}

// frames concatenates whole frames, one per payload, all of type t.
func frames(t FrameType, payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out, _ = AppendFrame(out, t, p)
	}
	return out
}

// TestFrameReaderErrors pins how a stream ends: the error after the
// last whole frame is the one ReadFrame reports on the same bytes.
func TestFrameReaderErrors(t *testing.T) {
	two := frames(FrameAck, []byte("one"), nil)
	hdr := []byte{byte(FramePage), 0, 0, 0, 10}
	cases := []struct {
		name   string
		in     []byte
		frames int
		want   error
	}{
		{"empty stream", nil, 0, io.EOF},
		{"EOF between frames", two, 2, io.EOF},
		{"EOF mid-header", append(append([]byte(nil), two...), hdr[:3]...), 2, io.ErrUnexpectedEOF},
		{"EOF after header", hdr, 0, ErrFrame},
		{"truncated payload", append(append([]byte(nil), hdr...), 1, 2, 3, 4), 0, ErrFrame},
		{"oversized payload", []byte{byte(FramePage), 0xff, 0xff, 0xff, 0xff, 1, 2}, 0, ErrFrame},
	}
	for _, tc := range cases {
		fr := NewFrameReader(bytes.NewReader(tc.in))
		var err error
		n := 0
		for ; ; n++ {
			if _, _, err = fr.Next(); err != nil {
				break
			}
		}
		if n != tc.frames || !errors.Is(err, tc.want) {
			t.Errorf("%s: %d frames then %v, want %d then %v", tc.name, n, err, tc.frames, tc.want)
		}
		if _, err2 := readFrames(bytes.NewReader(tc.in)); err2.Error() != err.Error() {
			t.Errorf("%s: Next says %q, ReadFrame %q", tc.name, err, err2)
		}
		if cap(fr.buf) > frameBufMin {
			t.Errorf("%s: buffer grew to %d bytes", tc.name, cap(fr.buf))
		}
	}
}

// readFrames reads r to its end with ReadFrame, returning the frame
// count and the error that ended it.
func readFrames(r io.Reader) (int, error) {
	for n := 0; ; n++ {
		if _, _, err := ReadFrame(r); err != nil {
			return n, err
		}
	}
}

// TestFrameReaderGrowsWithArrivals checks the allocation is bounded by
// bytes received, not bytes announced: a header claiming the maximum
// payload, followed by a trickle, leaves the buffer at its start size.
func TestFrameReaderGrowsWithArrivals(t *testing.T) {
	in := []byte{byte(FramePage), 0, 0x10, 0, 0} // 1 MiB announced
	in = append(in, make([]byte, 100)...)
	fr := NewFrameReader(bytes.NewReader(in))
	if _, _, err := fr.Next(); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated 1 MiB frame: %v", err)
	}
	if cap(fr.buf) != frameBufMin {
		t.Fatalf("buffer %d bytes after a 105-byte stream, want %d", cap(fr.buf), frameBufMin)
	}
}

// TestFrameReaderDropsLargeBuffer reads a maximum-size frame followed
// by small frames: the buffer the large frame needed is dropped once
// drained, so the connection keeps at most frameBufMax.
func TestFrameReaderDropsLargeBuffer(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, MaxFramePayload)
	small := [][]byte{[]byte("a"), []byte("bb"), nil, []byte("dddd")}
	in := append(frames(FramePage, big), frames(FrameAck, small...)...)
	fr := NewFrameReader(bytes.NewReader(in))
	ft, p, err := fr.Next()
	if err != nil || ft != FramePage || !bytes.Equal(p, big) {
		t.Fatalf("large frame: %s %d bytes %v", ft, len(p), err)
	}
	for i, want := range small {
		ft, p, err := fr.Next()
		if err != nil || ft != FrameAck || !bytes.Equal(p, want) {
			t.Fatalf("small frame %d: %s %q %v", i, ft, p, err)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if cap(fr.buf) > frameBufMax {
		t.Fatalf("retained %d bytes after draining, want <= %d", cap(fr.buf), frameBufMax)
	}
}

// batchReader serves an endless sequence of copies of one batch, never
// more than one batch per Read — a peer answering one request at a time
// — and counts the Read calls.
type batchReader struct {
	batch []byte
	off   int
	reads int
}

func (r *batchReader) Read(p []byte) (int, error) {
	r.reads++
	n := copy(p, r.batch[r.off:])
	r.off = (r.off + n) % len(r.batch)
	return n, nil
}

// TestFrameReaderCoalescedBatchOneRead checks that a coalesced
// 16-page answer, once the buffer has grown to fit it, arrives in one
// Read per batch.
func TestFrameReaderCoalescedBatchOneRead(t *testing.T) {
	var batch []byte
	for i := 0; i < 16; i++ {
		var err error
		if batch, err = AppendPageFrame(batch, 1, i, testContentPage()); err != nil {
			t.Fatal(err)
		}
	}
	batch = append(batch, frames(FrameAck, bytes.Repeat([]byte{1}, 16<<10))...)
	r := &batchReader{batch: batch}
	fr := NewFrameReader(r)
	readBatch := func() {
		for i := 0; i < 17; i++ {
			if _, _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		readBatch()
	}
	before := r.reads
	const batches = 10
	for i := 0; i < batches; i++ {
		readBatch()
	}
	if got := r.reads - before; got != batches {
		t.Fatalf("%d-byte batches took %d reads for %d batches", len(batch), got, batches)
	}
	if cap(fr.buf) > frameBufMax {
		t.Fatalf("buffer %d bytes, want <= %d", cap(fr.buf), frameBufMax)
	}
}

// TestFrameReaderZeroAlloc pins the steady-state read path to zero
// allocations: small frames are lent from the connection's buffer.
func TestFrameReaderZeroAlloc(t *testing.T) {
	r := &batchReader{batch: frames(FrameHeartbeat, EncodeHeartbeat(1, time.Second), EncodeHeartbeat(2, 2*time.Second))}
	fr := NewFrameReader(r)
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next = %v allocs/op, want 0", allocs)
	}
}
