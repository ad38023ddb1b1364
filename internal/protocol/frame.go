package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Length-prefixed frame codec for the streamed session transport. A
// frame is the unit one side writes atomically:
//
//	[1B type][4B big-endian payload length][payload]
//
// Payloads reuse the binary message codec: hello, welcome and
// policy-push frames carry one message, and the seq-bearing frames
// carry a payload shape (TouchBatch, PageFrame, ...) walked by the same
// codec, with embedded messages length-prefixed. A message therefore
// verifies identically whether it arrived framed or as an HTTP body.
// Frames are assembled in a pooled codec buffer and hit the connection
// in a single Write — one syscall per frame, and a torn or cut write can
// never interleave two frames.

// FrameType tags a stream frame.
type FrameType byte

// Frame types. Hello/Welcome bind a connection to a session,
// TouchBatch carries 1..n batched touch authenticators, Page answers
// one of them, Heartbeat is echoed for liveness, PolicyPush is the
// server-initiated risk-policy update, Ack carries request errors and
// hello rejections, Resync recovers a lost page, Bye is clean
// teardown. Resume opens a connection with a ticket fast login instead
// of a hello: the server answers with a welcome (seeding the nonce
// chain under the resumed key) followed by the login content page, so
// one round trip yields both a fresh session and a bound stream.
const (
	FrameHello FrameType = iota + 1
	FrameWelcome
	FrameTouchBatch
	FramePage
	FrameHeartbeat
	FramePolicyPush
	FrameAck
	FrameResync
	FrameBye
	FrameResume
)

// SeqBearing reports whether t's payload leads with an 8-byte
// big-endian sequence number (touch-batch, page, heartbeat, ack,
// resync, resume). Hello/welcome/policy-push carry binary-codec
// messages instead, and bye has no payload.
func (t FrameType) SeqBearing() bool {
	switch t {
	case FrameTouchBatch, FramePage, FrameHeartbeat, FrameAck, FrameResync, FrameResume:
		return true
	}
	return false
}

// FrameSeq peeks the leading sequence number of a seq-bearing frame's
// payload without decoding the rest — the error path's best-effort
// correlation: when a frame fails to decode fully, its seq usually
// still parsed, and the rejection ack should echo it so the client can
// match the ack to the request it answers. Non-seq-bearing types and
// payloads too short to carry a sequence report 0, the wire's
// "no sequence" value.
func FrameSeq(t FrameType, payload []byte) uint64 {
	if !t.SeqBearing() || len(payload) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(payload)
}

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameTouchBatch:
		return "touch-batch"
	case FramePage:
		return "page"
	case FrameHeartbeat:
		return "heartbeat"
	case FramePolicyPush:
		return "policy-push"
	case FrameAck:
		return "ack"
	case FrameResync:
		return "resync"
	case FrameBye:
		return "bye"
	case FrameResume:
		return "resume"
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// frameHeaderLen is the fixed frame header size.
const frameHeaderLen = 5

// MaxFramePayload caps a single frame, mirroring the HTTP paths'
// 1 MiB body bound.
const MaxFramePayload = 1 << 20

// ErrFrame reports a malformed or oversized frame. A malformed payload
// fails its decode with ErrBinaryDecode, like any binary message.
var ErrFrame = errors.New("protocol: malformed stream frame")

// WriteFrame writes one frame to w in a single Write call. The payload
// may be nil (heartbeats, bye).
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	return withCodec(func(c *codec) error {
		var err error
		if c.buf, err = AppendFrame(c.buf, t, payload); err != nil {
			return err
		}
		_, err = w.Write(c.buf)
		return err
	})
}

// AppendFrame appends one whole frame (header + payload) to dst and
// returns the extended slice. Callers coalescing several frames into
// a single write build them here and flush dst once; the wire bytes
// are identical to consecutive WriteFrame calls.
func AppendFrame(dst []byte, t FrameType, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, len(payload), MaxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	return append(append(dst, hdr[:]...), payload...), nil
}

// parseFrameHeader splits a frame header into its type and payload
// length, refusing a length over MaxFramePayload before any payload is
// read, so a corrupted header cannot make a reader buffer unbounded
// garbage.
func parseFrameHeader(hdr []byte) (FrameType, int, error) {
	t := FrameType(hdr[0])
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxFramePayload {
		return 0, 0, fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, n, MaxFramePayload)
	}
	return t, n, nil
}

// truncatedPayload reports a connection that ended or failed inside a
// frame's payload; cause is what io.ReadFull would say about it.
func truncatedPayload(t FrameType, cause error) error {
	return fmt.Errorf("%w: truncated %s payload: %v", ErrFrame, t, cause)
}

// ReadFrame reads one frame from r with exact-size reads. The returned
// payload is freshly allocated and owned by the caller. Stream read
// loops use a FrameReader instead, which buffers and lends payloads.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	t, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if n == 0 {
		return t, nil, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, truncatedPayload(t, err)
	}
	return t, payload, nil
}

// FrameReader buffer bounds: the start size, and the most a
// connection keeps once its buffer is drained.
const (
	frameBufMin = 4 << 10
	frameBufMax = 32 << 10
)

// FrameReader reads a stream of frames through one buffer per
// connection. The buffer starts at 4 KiB and doubles when the frame
// being read does not fit, or — up to 32 KiB — when a single Read
// filled all its free space, so a peer's coalesced batch answer keeps
// arriving in one syscall. It grows only as bytes arrive: a header
// announcing a 1 MiB payload costs nothing until the payload does.
// A buffer grown past 32 KiB is dropped once drained.
//
// Next returns the same frames and errors as consecutive ReadFrame
// calls on the same bytes. A FrameReader is not safe for concurrent
// use.
type FrameReader struct {
	rd         io.Reader
	buf        []byte
	start, end int   // buffered bytes are buf[start:end]
	full       bool  // the last Read filled all free space
	err        error // sticky: the Read error that ended the stream
}

// NewFrameReader returns a FrameReader reading from rd.
func NewFrameReader(rd io.Reader) *FrameReader { return &FrameReader{rd: rd} }

// Next reads one frame. The payload is borrowed from the reader's
// buffer and valid only until the next call; Decode copies every field
// out, so decoding it before reading on is enough. An empty payload is
// nil. A peer gone between frames is io.EOF, one gone inside a header
// io.ErrUnexpectedEOF, and one gone inside a payload ErrFrame, exactly
// as from ReadFrame.
func (r *FrameReader) Next() (FrameType, []byte, error) {
	if r.start == r.end && cap(r.buf) > frameBufMax {
		r.buf, r.start, r.end = nil, 0, 0
	}
	for r.end-r.start < frameHeaderLen {
		if r.err != nil {
			return 0, nil, r.short(r.end - r.start)
		}
		r.fill(frameHeaderLen)
	}
	t, n, err := parseFrameHeader(r.buf[r.start:])
	if err != nil {
		return 0, nil, err
	}
	need := frameHeaderLen + n
	for r.end-r.start < need {
		if r.err != nil {
			return 0, nil, truncatedPayload(t, r.short(r.end-r.start-frameHeaderLen))
		}
		r.fill(need)
	}
	payload := r.buf[r.start+frameHeaderLen : r.start+need : r.start+need]
	r.start += need
	if n == 0 {
		payload = nil
	}
	return t, payload, nil
}

// short reports the stream's end the way io.ReadFull does after got
// bytes of a field: io.EOF only when the field had not begun.
func (r *FrameReader) short(got int) error {
	if r.err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return r.err
}

// fill makes room for a frame of need bytes and issues one Read.
func (r *FrameReader) fill(need int) {
	if r.start == r.end {
		r.start, r.end = 0, 0
	}
	if r.start > 0 && (r.start+need > len(r.buf) || r.end == len(r.buf)) {
		r.end = copy(r.buf, r.buf[r.start:r.end])
		r.start = 0
	}
	switch {
	case r.buf == nil:
		r.buf = make([]byte, frameBufMin)
	case r.end == len(r.buf), r.full && len(r.buf) < frameBufMax:
		grown := 2 * len(r.buf)
		if grown > frameBufMax && grown > need {
			grown = max(need, frameBufMax)
		}
		buf := make([]byte, grown)
		r.end = copy(buf, r.buf[r.start:r.end])
		r.buf, r.start = buf, 0
	}
	n, err := r.rd.Read(r.buf[r.end:])
	r.full = n == len(r.buf)-r.end
	r.end += n
	if err != nil {
		r.err = err
	}
}

// Frame payloads. Each seq-bearing frame's payload is one of these
// shapes, walked by the binary codec like a message but untagged (the
// frame type already says what follows); decode one with Decode, e.g.
// Decode[TouchBatch](payload). Embedded messages are length-prefixed.

// TouchBatch is the payload of a FrameTouchBatch: the client's frame
// sequence number (echoed by every response so a reordered or replayed
// frame is detected immediately), the virtual timestamp, and the
// batched touch-authenticated page requests, applied in order.
type TouchBatch struct {
	Seq      uint64
	Now      time.Duration
	Requests []*PageRequest
}

// maxBatchRequests bounds how many requests one touch-batch frame may
// carry.
const maxBatchRequests = 256

func (b *TouchBatch) walk(c *codec) {
	c.u64(&b.Seq)
	c.dur(&b.Now)
	n := c.count(len(b.Requests), 1, maxBatchRequests)
	if c.decode {
		b.Requests = make([]*PageRequest, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		embed(c, &b.Requests[i])
	}
}

// PageFrame is the payload of a FramePage: the echoed request frame
// sequence, the index of the batched request it answers, and the
// content page.
type PageFrame struct {
	Seq   uint64
	Index int
	Page  *ContentPage
}

func (f *PageFrame) walk(c *codec) {
	c.u64(&f.Seq)
	c.u32(&f.Index)
	embed(c, &f.Page)
}

// Heartbeat is the payload of a FrameHeartbeat: a client-chosen
// sequence plus the virtual timestamp; the server echoes both
// verbatim.
type Heartbeat struct {
	Seq uint64
	Now time.Duration
}

func (h *Heartbeat) walk(c *codec) {
	c.u64(&h.Seq)
	c.dur(&h.Now)
}

// Ack is the payload of a FrameAck: the echoed frame sequence, a wire
// error code ("" = ok; otherwise one of the X-Trust-Error codes, so the
// stream surfaces the same typed rejections as the HTTP path), and a
// human-readable detail.
type Ack struct {
	Seq    uint64
	Code   string
	Detail string
}

func (a *Ack) walk(c *codec) {
	c.u64(&a.Seq)
	c.str(&a.Code)
	c.str(&a.Detail)
}

// ResumeFrame is the payload of a FrameResume, a ticket fast login
// carried as a stream's opening frame: the client frame sequence, the
// virtual timestamp (a resume opens a connection, so unlike touch
// batches there is no preceding hello to carry it), and the
// ResumeSubmit.
type ResumeFrame struct {
	Seq    uint64
	Now    time.Duration
	Submit *ResumeSubmit
}

func (f *ResumeFrame) walk(c *codec) {
	c.u64(&f.Seq)
	c.dur(&f.Now)
	embed(c, &f.Submit)
}

// ResyncFrame is the payload of a FrameResync: the client frame
// sequence plus the MAC-proof resync request.
type ResyncFrame struct {
	Seq     uint64
	Request *ResyncRequest
}

func (f *ResyncFrame) walk(c *codec) {
	c.u64(&f.Seq)
	embed(c, &f.Request)
}

// EncodeTouchBatch serializes a touch-batch payload.
func EncodeTouchBatch(seq uint64, now time.Duration, reqs []*PageRequest) ([]byte, error) {
	return EncodeBinary(&TouchBatch{Seq: seq, Now: now, Requests: reqs})
}

// EncodeResumeFrame serializes a stream resume payload.
func EncodeResumeFrame(seq uint64, now time.Duration, sub *ResumeSubmit) ([]byte, error) {
	return EncodeBinary(&ResumeFrame{Seq: seq, Now: now, Submit: sub})
}

// EncodeResyncFrame serializes a stream resync payload.
func EncodeResyncFrame(seq uint64, req *ResyncRequest) ([]byte, error) {
	return EncodeBinary(&ResyncFrame{Seq: seq, Request: req})
}

// EncodeAck serializes an ack payload. A sequence number and two
// strings always encode, so there is no error to report.
func EncodeAck(seq uint64, code, detail string) []byte {
	b, _ := EncodeBinary(&Ack{Seq: seq, Code: code, Detail: detail})
	return b
}

// EncodeHeartbeat serializes a heartbeat payload (or its echo). Two
// fixed-width integers always encode, so there is no error to report.
func EncodeHeartbeat(seq uint64, now time.Duration) []byte {
	b, _ := EncodeBinary(&Heartbeat{Seq: seq, Now: now})
	return b
}

// AppendPageFrame appends a complete FramePage frame — header included
// — to dst and returns the extended slice; on error dst is returned
// unextended. The batch and resync response paths build their replies
// here before a single write.
func AppendPageFrame(dst []byte, seq uint64, index int, cp *ContentPage) ([]byte, error) {
	f := PageFrame{Seq: seq, Index: index, Page: cp}
	err := withCodec(func(c *codec) error {
		f.walk(c)
		if c.err != nil {
			return c.err
		}
		var err error
		dst, err = AppendFrame(dst, FramePage, c.buf)
		return err
	})
	return dst, err
}
