package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"trust/internal/frame"
	"trust/internal/pki"
)

// Binary wire codec: the paper rides its fields in cookie extensions,
// where every byte counts; this length-prefixed binary encoding is the
// production alternative to the JSON transport (see the Fig 10 wire
// overhead table for the size comparison). It is also the one
// canonical form: every signature and MAC covers the binary encoding of
// its message with the authenticators cleared, so a message verifies
// identically whichever transport carried it. JSON is transport only.
//
// Each message and frame payload lists its fields once, in a walk
// method that both encodes and decodes (see codec).

const binVersion = 1

// Message tags.
const (
	tagRegistrationPage byte = iota + 1
	tagRegistrationSubmit
	tagLoginPage
	tagLoginSubmit
	tagContentPage
	tagPageRequest
	tagResyncRequest
	tagStreamHello
	tagStreamWelcome
	tagPolicyPush
	tagResumeSubmit
)

// maxPageElements bounds a page's element list.
const maxPageElements = 10000

var (
	// ErrBinaryDecode reports malformed binary input.
	ErrBinaryDecode = errors.New("protocol: malformed binary message")
	// ErrRange reports a message the canonical form cannot carry: an
	// int outside [0, 2^32), an element kind outside [0, 255], or a
	// list longer than its bound. Refusing it keeps the form injective
	// — a truncated value would authenticate a different message.
	ErrRange = errors.New("protocol: field outside its wire range")
)

// wireShape is a message or frame payload: anything with a field walk.
type wireShape interface{ walk(c *codec) }

// Authenticator fields, as bits of codec.omit.
const (
	omitSignature uint8 = 1 << iota
	omitMAC
)

// codec is the cursor of one field walk. Encoding appends each field to
// buf; decoding reads it from in at off into the field. The first
// failure sticks in err — a short read or bad tag when decoding, a
// value outside its wire range when encoding — and every later read is
// a no-op. Encoding never writes to the walked value, so shared values
// (the server's pages) encode concurrently. An encode with omit bits set
// writes those authenticator fields empty: that is the canonical input
// of a signature or MAC (SigningBytes, MACBytes).
type codec struct {
	decode bool
	omit   uint8
	buf    []byte
	in     []byte
	off    int
	err    error
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// outOfRange fails the walk on a value outside its field's range. The
// value stays out of the error: lengths of key material walk the same
// path.
func (c *codec) outOfRange() {
	if c.decode {
		c.fail(ErrBinaryDecode)
	} else {
		c.fail(ErrRange)
	}
}

// next consumes n input bytes, or fails and returns nil.
func (c *codec) next(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.in)-c.off {
		c.fail(ErrBinaryDecode)
		return nil
	}
	b := c.in[c.off : c.off+n]
	c.off += n
	return b
}

// finish fails a decode that left input unread.
func (c *codec) finish() {
	if c.err == nil && c.off != len(c.in) {
		c.err = fmt.Errorf("%w: %d trailing bytes", ErrBinaryDecode, len(c.in)-c.off)
	}
}

// tag walks a message header: the codec version and the message tag.
func (c *codec) tag(t byte) {
	if !c.decode {
		c.buf = append(c.buf, binVersion, t)
		return
	}
	if b := c.next(2); b != nil && (b[0] != binVersion || b[1] != t) {
		c.fail(fmt.Errorf("%w: version %d tag %d, want version %d tag %d", ErrBinaryDecode, b[0], b[1], binVersion, t))
	}
}

func (c *codec) u64(v *uint64) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
		return
	}
	if b := c.next(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

// u32 walks an int as a big-endian u32.
func (c *codec) u32(v *int) {
	if !c.decode {
		if *v < 0 || uint64(*v) > math.MaxUint32 {
			c.outOfRange()
		}
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(*v))
		return
	}
	if b := c.next(4); b != nil {
		*v = int(binary.BigEndian.Uint32(b))
	}
}

// u8 walks an int as one byte.
func (c *codec) u8(v *int) {
	if !c.decode {
		if *v < 0 || *v > math.MaxUint8 {
			c.outOfRange()
		}
		c.buf = append(c.buf, byte(*v))
		return
	}
	if b := c.next(1); b != nil {
		*v = int(b[0])
	}
}

func (c *codec) f64(v *float64) {
	bits := math.Float64bits(*v)
	c.u64(&bits)
	if c.decode {
		*v = math.Float64frombits(bits)
	}
}

func (c *codec) dur(v *time.Duration) {
	u := uint64(*v)
	c.u64(&u)
	if c.decode {
		*v = time.Duration(u)
	}
}

// size walks a length prefix.
func (c *codec) size(n int) int {
	c.u32(&n)
	return n
}

// count walks a list length, which must lie in [lo, hi] both ways.
func (c *codec) count(n, lo, hi int) int {
	n = c.size(n)
	if c.err == nil && (n < lo || n > hi) {
		c.outOfRange()
	}
	if c.err != nil {
		return 0
	}
	return n
}

func (c *codec) bytes(v *[]byte) {
	n := c.size(len(*v))
	if !c.decode {
		c.buf = append(c.buf, *v...)
		return
	}
	if b := c.next(n); b != nil {
		*v = make([]byte, n)
		copy(*v, b)
	}
}

// auth walks an authenticator field of the given omit bit.
func (c *codec) auth(v *[]byte, field uint8) {
	if c.omit&field != 0 {
		c.size(0)
		return
	}
	c.bytes(v)
}

func (c *codec) str(v *string) {
	n := c.size(len(*v))
	if !c.decode {
		c.buf = append(c.buf, *v...)
		return
	}
	if b := c.next(n); b != nil {
		*v = string(b)
	}
}

func (c *codec) hash(h *frame.Hash) {
	if !c.decode {
		c.buf = append(c.buf, h[:]...)
		return
	}
	if b := c.next(len(h)); b != nil {
		copy(h[:], b)
	}
}

// present walks an optional field's presence byte (0 absent, 1
// present) and reports whether the value follows.
func (c *codec) present(set bool) bool {
	flag := 0
	if set {
		flag = 1
	}
	c.u8(&flag)
	if flag > 1 {
		c.outOfRange()
	}
	return c.err == nil && flag == 1
}

// opt walks the presence of the optional *p, allocating it when
// decoding; it returns the value whose fields follow, or nil.
func opt[T any](c *codec, p **T) *T {
	if !c.present(*p != nil) {
		return nil
	}
	if c.decode {
		*p = new(T)
	}
	return *p
}

// embed walks *p as a length-prefixed embedded message or payload,
// allocating it when decoding.
func embed[T any, P interface {
	*T
	wireShape
}](c *codec, p *P) {
	if !c.decode {
		at := len(c.buf)
		c.buf = append(c.buf, 0, 0, 0, 0)
		(*p).walk(c)
		n := len(c.buf) - at - 4
		if uint64(n) > math.MaxUint32 {
			c.outOfRange()
		}
		binary.BigEndian.PutUint32(c.buf[at:], uint32(n))
		return
	}
	n := c.size(0)
	if c.err != nil || n > len(c.in)-c.off {
		c.fail(ErrBinaryDecode)
		return
	}
	*p = new(T)
	outer := c.in
	c.in = c.in[:c.off+n]
	(*p).walk(c)
	c.finish()
	c.in = outer
}

func walkPage(c *codec, pp **frame.Page) {
	p := opt(c, pp)
	if p == nil {
		return
	}
	c.str(&p.URL)
	c.str(&p.Title)
	c.str(&p.Body)
	c.f64(&p.HeightPX)
	n := c.count(len(p.Elements), 0, maxPageElements)
	for i := 0; i < n && c.err == nil; i++ {
		if c.decode {
			p.Elements = append(p.Elements, frame.Element{})
		}
		e := &p.Elements[i]
		c.str(&e.ID)
		c.u8((*int)(&e.Kind))
		c.str(&e.Label)
		c.str(&e.Action)
		c.f64(&e.Bounds.Min.X)
		c.f64(&e.Bounds.Min.Y)
		c.f64(&e.Bounds.Max.X)
		c.f64(&e.Bounds.Max.Y)
	}
}

func walkCert(c *codec, cp **pki.Certificate) {
	x := opt(c, cp)
	if x == nil {
		return
	}
	c.str(&x.Subject)
	c.str((*string)(&x.Role))
	c.bytes(&x.PublicKey)
	c.bytes(&x.KemKey)
	c.str(&x.Issuer)
	c.u64(&x.Serial)
	c.bytes(&x.Signature)
}

func (m *RegistrationPage) walk(c *codec) {
	c.tag(tagRegistrationPage)
	c.str(&m.Domain)
	c.str((*string)(&m.Nonce))
	walkPage(c, &m.Page)
	walkCert(c, &m.ServerCert)
	c.auth(&m.Signature, omitSignature)
}

func (m *RegistrationSubmit) walk(c *codec) {
	c.tag(tagRegistrationSubmit)
	c.str(&m.Domain)
	c.str(&m.Account)
	c.str((*string)(&m.Nonce))
	c.bytes(&m.UserPub)
	c.hash(&m.FrameHash)
	walkCert(c, &m.DeviceCert)
	c.auth(&m.Signature, omitSignature)
}

func (m *LoginPage) walk(c *codec) {
	c.tag(tagLoginPage)
	c.str(&m.Domain)
	c.str((*string)(&m.Nonce))
	walkPage(c, &m.Page)
	c.auth(&m.Signature, omitSignature)
}

func (m *LoginSubmit) walk(c *codec) {
	c.tag(tagLoginSubmit)
	c.str(&m.Domain)
	c.str(&m.Account)
	c.str((*string)(&m.Nonce))
	c.bytes(&m.SessionKeyCT)
	c.hash(&m.FrameHash)
	c.u32(&m.RiskVerified)
	c.u32(&m.RiskWindow)
	c.auth(&m.Signature, omitSignature)
	c.auth(&m.MAC, omitMAC)
}

func (m *ContentPage) walk(c *codec) {
	c.tag(tagContentPage)
	c.str(&m.Domain)
	c.str(&m.SessionID)
	c.str((*string)(&m.Nonce))
	c.str(&m.Account)
	walkPage(c, &m.Page)
	c.bytes(&m.Ticket)
	c.auth(&m.MAC, omitMAC)
}

func (m *PageRequest) walk(c *codec) {
	c.tag(tagPageRequest)
	c.str(&m.Domain)
	c.str(&m.Account)
	c.str(&m.SessionID)
	c.str((*string)(&m.Nonce))
	c.str(&m.Action)
	c.hash(&m.FrameHash)
	c.u32(&m.RiskVerified)
	c.u32(&m.RiskWindow)
	c.auth(&m.MAC, omitMAC)
}

func (m *ResyncRequest) walk(c *codec) {
	c.tag(tagResyncRequest)
	c.str(&m.Domain)
	c.str(&m.Account)
	c.str(&m.SessionID)
	c.auth(&m.MAC, omitMAC)
}

func (m *ResumeSubmit) walk(c *codec) {
	c.tag(tagResumeSubmit)
	c.str(&m.Domain)
	c.str(&m.Account)
	c.bytes(&m.Ticket)
	c.hash(&m.FrameHash)
	c.u32(&m.RiskVerified)
	c.u32(&m.RiskWindow)
	c.auth(&m.MAC, omitMAC)
}

func (m *StreamHello) walk(c *codec) {
	c.tag(tagStreamHello)
	c.str(&m.Domain)
	c.str(&m.Account)
	c.str(&m.SessionID)
	c.auth(&m.MAC, omitMAC)
}

func (m *StreamWelcome) walk(c *codec) {
	c.tag(tagStreamWelcome)
	c.str(&m.Domain)
	c.str(&m.SessionID)
	c.bytes(&m.NonceSeed)
	c.u32(&m.Window)
	c.u32(&m.MinVerified)
	c.auth(&m.MAC, omitMAC)
}

func (m *PolicyPush) walk(c *codec) {
	c.tag(tagPolicyPush)
	c.str(&m.Domain)
	c.str(&m.SessionID)
	c.u32(&m.Window)
	c.u32(&m.MinVerified)
	c.u64(&m.Seq)
	c.auth(&m.MAC, omitMAC)
}

// codecPool recycles codecs, and with them encode buffers, across walks
// (the per-request hot path re-encodes a ContentPage on every
// response). Oversized buffers are dropped instead of pooled so one
// huge message does not pin its allocation forever.
var codecPool = sync.Pool{New: func() any { return new(codec) }}

const maxPooledEncodeBuf = 64 << 10

// withCodec lends fn an empty pooled codec in encode mode and recycles
// it afterwards. fn must copy out any bytes it keeps.
func withCodec(fn func(c *codec) error) error {
	c := codecPool.Get().(*codec)
	err := fn(c)
	c.decode, c.omit, c.buf, c.in, c.off, c.err = false, 0, c.buf[:0], nil, 0, nil
	if cap(c.buf) <= maxPooledEncodeBuf {
		codecPool.Put(c)
	}
	return err
}

// EncodeBinary serializes a protocol message or frame payload to its
// binary wire form. The returned slice is freshly allocated and owned
// by the caller.
func EncodeBinary(msg any) ([]byte, error) {
	return EncodeBinaryAppend(nil, msg)
}

// EncodeBinaryAppend appends msg's binary encoding to dst and returns
// the extended slice — the allocation-free variant for callers that
// recycle their own buffers (the device transport pools request
// bodies this way). On error dst is returned unextended.
func EncodeBinaryAppend(dst []byte, msg any) ([]byte, error) {
	m, ok := msg.(wireShape)
	if !ok {
		return dst, fmt.Errorf("protocol: cannot binary-encode %T", msg)
	}
	return encode(dst, m, 0)
}

// encode appends m's encoding to dst, writing the authenticators in
// omit empty.
func encode(dst []byte, m wireShape, omit uint8) ([]byte, error) {
	err := withCodec(func(c *codec) error {
		c.omit = omit
		m.walk(c)
		if c.err == nil {
			dst = append(dst, c.buf...)
		}
		return c.err
	})
	return dst, err
}

// Decode parses data as exactly one M — a protocol message or frame
// payload — failing on anything else: another message type, a short
// or oversized field, trailing bytes. The result shares no memory with
// data.
func Decode[M any](data []byte) (*M, error) {
	m := new(M)
	w, ok := any(m).(wireShape)
	if !ok {
		return nil, fmt.Errorf("protocol: cannot binary-decode %T", m)
	}
	err := withCodec(func(c *codec) error {
		c.decode, c.in = true, data
		w.walk(c)
		c.finish()
		return c.err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
