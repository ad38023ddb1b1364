package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trust/internal/device"
	"trust/internal/protocol"
	"trust/internal/store"
)

// span is one timed call at a layer boundary. Times are nanoseconds on
// the tracer's clock; op ties every span of one generator op together
// and parent names the span that caused this one (0: none known).
type span struct {
	id, parent, op int64
	name           string
	start, end     int64
	failed         bool
}

func (s span) interval() interval { return interval{s.start, s.end} }

// devTrace is one device's trace state. spans is written only by the
// device's own goroutine (ops, touches and transport calls all run on
// it); the current-span ids are read by server goroutines to parent
// their spans.
type devTrace struct {
	curOp, curCall, curServer atomic.Int64
	spans                     []span
}

// tracer holds the timing decorators' spans in memory. It records only
// while on is set; the decorators stay installed but pass straight
// through when it is off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64
	devs  []*devTrace
	// addrs maps a client socket's local address to its device, so the
	// server-side decorators can tell whose request they are timing.
	addrs sync.Map

	mu     sync.Mutex
	server []span // server and store spans, from any goroutine
}

func newTracer(devices int) *tracer {
	tr := &tracer{epoch: time.Now()}
	for i := 0; i < devices; i++ {
		tr.devs = append(tr.devs, &devTrace{})
	}
	return tr
}

func (tr *tracer) now() int64      { return int64(time.Since(tr.epoch)) }
func (tr *tracer) newID() int64    { return tr.ids.Add(1) }
func (tr *tracer) recording() bool { return tr != nil && tr.on.Load() }

func (tr *tracer) addServer(s span) {
	tr.mu.Lock()
	tr.server = append(tr.server, s)
	tr.mu.Unlock()
}

// device returns the trace state of the device owning the client socket
// at addr, or nil when the address is not one of ours.
func (tr *tracer) device(addr string) *devTrace {
	if v, ok := tr.addrs.Load(addr); ok {
		return tr.devs[v.(int)]
	}
	return nil
}

// dialer returns a dial function that remembers the new socket's local
// address as device i's.
func (tr *tracer) dialer(i int) func(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if err == nil {
			tr.addrs.Store(c.LocalAddr().String(), i)
		}
		return c, err
	}
}

// allSpans returns every recorded span, device spans first.
func (tr *tracer) allSpans() []span {
	var out []span
	for _, d := range tr.devs {
		out = append(out, d.spans...)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append(out, tr.server...)
}

// write stores the spans as tab-separated lines (id, parent, op, name,
// start_ns, end_ns, failed) under dir, replacing the workload's previous
// trace.
func (tr *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns\tfailed")
	for _, s := range tr.allSpans() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%t\n", s.id, s.parent, s.op, s.name, s.start, s.end, s.failed)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// beginOp opens a device's op span; endOp closes it under the op kind
// the workload reported.
func (tr *tracer) beginOp(d *devTrace) (id, start int64) {
	id = tr.newID()
	d.curOp.Store(id)
	return id, tr.now()
}

func (tr *tracer) endOp(d *devTrace, id, start int64, kind string, err error) {
	d.spans = append(d.spans, span{id: id, op: id, name: "op." + kind, start: start, end: tr.now(), failed: err != nil})
	d.curOp.Store(0)
}

// child records a device-side span under the device's current op.
func (tr *tracer) child(d *devTrace, id int64, name string, start int64, err error) {
	op := d.curOp.Load()
	d.spans = append(d.spans, span{id: id, parent: op, op: op, name: name, start: start, end: tr.now(), failed: err != nil})
}

// tracedStream is the timing Transport decorator. Embedding the
// concrete *device.Stream forwards every method the Device probes for
// (BindSession, SubmitPageBatch, PredictNonce, Stats); the overrides
// below time the calls that cross to the server.
type tracedStream struct {
	*device.Stream
	tr *tracer
	d  *devTrace
}

var _ device.Transport = (*tracedStream)(nil)

// call opens a transport span and returns the function that closes it.
func (t *tracedStream) call(name string) func(error) {
	if !t.tr.recording() {
		return func(error) {}
	}
	id, start := t.tr.newID(), t.tr.now()
	t.d.curCall.Store(id)
	return func(err error) {
		t.tr.child(t.d, id, "transport."+name, start, err)
		t.d.curCall.Store(0)
	}
}

func (t *tracedStream) FetchRegistrationPage(now time.Duration) (*protocol.RegistrationPage, error) {
	done := t.call("FetchRegistrationPage")
	p, err := t.Stream.FetchRegistrationPage(now)
	done(err)
	return p, err
}

func (t *tracedStream) SubmitRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recovery string) (protocol.RegistrationResult, error) {
	done := t.call("SubmitRegistration")
	r, err := t.Stream.SubmitRegistration(now, sub, recovery)
	done(err)
	return r, err
}

func (t *tracedStream) FetchLoginPage(now time.Duration) (*protocol.LoginPage, error) {
	done := t.call("FetchLoginPage")
	p, err := t.Stream.FetchLoginPage(now)
	done(err)
	return p, err
}

func (t *tracedStream) SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	done := t.call("SubmitLogin")
	cp, err := t.Stream.SubmitLogin(now, sub)
	done(err)
	return cp, err
}

func (t *tracedStream) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	done := t.call("SubmitResume")
	cp, err := t.Stream.SubmitResume(now, sub)
	done(err)
	return cp, err
}

func (t *tracedStream) SubmitPageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error) {
	done := t.call("SubmitPageRequest")
	cp, err := t.Stream.SubmitPageRequest(now, req)
	done(err)
	return cp, err
}

func (t *tracedStream) SubmitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	done := t.call("SubmitResync")
	cp, err := t.Stream.SubmitResync(now, req)
	done(err)
	return cp, err
}

func (t *tracedStream) SubmitPageBatch(now time.Duration, reqs []*protocol.PageRequest) ([]*protocol.ContentPage, error) {
	done := t.call("SubmitPageBatch")
	cps, err := t.Stream.SubmitPageBatch(now, reqs)
	done(err)
	return cps, err
}

// BindSession is timed because after a cold login it dials the stream
// and runs the hello exchange.
func (t *tracedStream) BindSession(sess *protocol.Session) {
	done := t.call("BindSession")
	t.Stream.BindSession(sess)
	done(nil)
}

// serverSpan opens a server-side span for the device owning the client
// socket at addr, parented to that device's transport call in flight.
func (tr *tracer) serverSpan(addr, name string) span {
	s := span{id: tr.newID(), name: name, start: tr.now()}
	if d := tr.device(addr); d != nil {
		s.parent, s.op = d.curCall.Load(), d.curOp.Load()
		d.curServer.Store(s.id)
	}
	return s
}

// middleware is the HTTP decorator: one span per request handled by
// the webserver's Handler.
func (tr *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.recording() {
			h.ServeHTTP(w, r)
			return
		}
		s := tr.serverSpan(r.RemoteAddr, httpEndpoint(r))
		h.ServeHTTP(w, r)
		s.end = tr.now()
		tr.addServer(s)
	})
}

// httpEndpoint names a webserver route the way the per-layer metrics
// do: GET of a flow's page is "<flow>_page", its POST is "<flow>".
func httpEndpoint(r *http.Request) string {
	name := strings.TrimPrefix(r.URL.Path, "/trust/")
	if r.Method == http.MethodGet && (name == "register" || name == "login") {
		name += "_page"
	}
	return "webserver.http." + name
}

// serverConn is the stream decorator on the server's side of a
// connection: it follows the frame boundaries in the bytes ServeStream
// reads and times each request from the Read that delivered its first
// frame to the Write that answers it.
type serverConn struct {
	net.Conn
	tr *tracer

	mu      sync.Mutex
	hdr     [5]byte // frame header being assembled
	hdrN    int
	skip    int // payload bytes of the current frame still to pass
	pending bool
	cur     span
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.tr.recording() {
		c.mu.Lock()
		c.scan(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

// scan walks the frame headers in b; the first frame of a request that
// expects an answer opens the pending span.
func (c *serverConn) scan(b []byte) {
	for len(b) > 0 {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip -= k
			b = b[k:]
			continue
		}
		k := copy(c.hdr[c.hdrN:], b)
		c.hdrN += k
		b = b[k:]
		if c.hdrN < len(c.hdr) {
			return
		}
		c.hdrN = 0
		c.skip = int(binary.BigEndian.Uint32(c.hdr[1:]))
		name := streamEndpoint(protocol.FrameType(c.hdr[0]))
		if name != "" && !c.pending {
			c.pending = true
			c.cur = c.tr.serverSpan(c.RemoteAddr().String(), name)
		}
	}
}

func (c *serverConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	if c.pending {
		c.pending = false
		c.cur.end = c.tr.now()
		c.cur.failed = err != nil
		c.tr.addServer(c.cur)
	}
	c.mu.Unlock()
	return n, err
}

// streamEndpoint names the stream request a frame opens ("" for frames
// that get no answer).
func streamEndpoint(t protocol.FrameType) string {
	switch t {
	case protocol.FrameHello:
		return "webserver.stream.hello"
	case protocol.FrameResume:
		return "webserver.stream.resume"
	case protocol.FrameTouchBatch:
		return "webserver.stream.page"
	case protocol.FrameResync:
		return "webserver.stream.resync"
	case protocol.FrameHeartbeat:
		return "webserver.stream.heartbeat"
	}
	return ""
}

// tracedBackend is the store decorator: it times every Append the
// webserver makes. Accounts the benchmark creates start with "d<i>-",
// which ties an append to device i's request in flight.
type tracedBackend struct {
	store.AccountBackend
	tr *tracer
}

func (b tracedBackend) Append(rec store.Record) error {
	if !b.tr.recording() {
		return b.AccountBackend.Append(rec)
	}
	s := span{id: b.tr.newID(), name: "store.append", start: b.tr.now()}
	if d := b.deviceOf(rec.Account); d != nil {
		s.parent, s.op = d.curServer.Load(), d.curOp.Load()
	}
	err := b.AccountBackend.Append(rec)
	s.end, s.failed = b.tr.now(), err != nil
	b.tr.addServer(s)
	return err
}

func (b tracedBackend) deviceOf(account string) *devTrace {
	rest, ok := strings.CutPrefix(account, "d")
	if !ok {
		return nil
	}
	num, _, _ := strings.Cut(rest, "-")
	i, err := strconv.Atoi(num)
	if err != nil || i < 0 || i >= len(b.tr.devs) {
		return nil
	}
	return b.tr.devs[i]
}
