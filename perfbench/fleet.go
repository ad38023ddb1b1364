package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/store"
	"trust/internal/touch"
	"trust/internal/webserver"
)

// prefixTouches is how many of each device's first touches are kept for
// the determinism check (see sameTouches).
const prefixTouches = 256

// client is one simulated phone and the goroutine state that drives it.
// Only that goroutine touches it while a phase runs.
type client struct {
	i      int
	dev    *device.Device
	stream *device.Stream
	finger *fingerprint.Finger
	tr     *tracer   // nil in untraced fleets
	trace  *devTrace // this device's trace state in tr
	acct   string
	// fallbackCol is dev_resume_fallbacks' index in the device telemetry.
	fallbackCol int
	// now is the device's virtual clock: frozen after its set-up touch,
	// advanced only by touch-browse's inter-touch gap.
	now time.Duration
	// ops counts the ops issued to this device; it picks each op's kind.
	ops int
	// okCalls counts device calls that returned nil: each is one request
	// the server accepted, whatever the op's own verdict.
	okCalls int
	// enrolled lists the ids whose enrollment the server acknowledged.
	enrolled []string
	touches  int
	verified int
	prefix   []bool // verdicts of the first prefixTouches touches
}

// fleet is one server with its devices, built from the seed.
type fleet struct {
	w       *workload
	seed    uint64
	srv     *webserver.Server
	cert    *pki.Certificate
	fs      *store.MemFS // WAL workloads: the server's disk
	wal     *store.WAL
	pre     []string // accounts pre-written to fs
	hts     *httptest.Server
	ln      net.Listener
	serving sync.WaitGroup // stream accept loop and connections
	clients []*client
	tr      *tracer
	// recoverTime is how long OpenWAL took (zero without a WAL).
	recoverTime time.Duration
	// accepted/rejected are the server's counters after set-up.
	accepted, rejected int
}

// sensorPlacement puts one FLock sensor under the touch hot-spot.
var sensorPlacement = placement.Placement{Sensors: []geom.Rect{geom.RectWH(180, 660, 120, 120)}}

// newFleet builds a server and its devices, then registers and logs
// in every device over the HTTP front and binds its stream. disk, when
// not nil, is the durable backend's pre-written disk; tr, when not nil,
// installs the timing decorators.
func newFleet(w *workload, seed uint64, devices int, disk *walDisk, tr *tracer) (*fleet, error) {
	fl := &fleet{w: w, seed: seed, tr: tr}
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(seed^0xca))
	if err != nil {
		return nil, err
	}
	backend := store.AccountBackend(store.Memory{})
	if disk != nil {
		fl.fs, fl.pre = disk.fs, disk.accounts
		t0 := time.Now()
		if fl.wal, err = store.OpenWAL(fl.fs, store.WALOptions{}); err != nil {
			return nil, fmt.Errorf("recovering WAL: %w", err)
		}
		fl.recoverTime = time.Since(t0)
		backend = fl.wal
		if tr != nil {
			backend = tracedBackend{AccountBackend: fl.wal, tr: tr}
		}
	}
	if fl.srv, err = webserver.NewDurable("bench.example", ca, seed^0x5e7, backend); err != nil {
		return nil, err
	}
	fl.cert = fl.srv.Certificate()
	handler := fl.srv.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	fl.hts = httptest.NewServer(handler)
	if fl.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		fl.shutdown()
		return nil, err
	}
	fl.serving.Add(1)
	go fl.acceptStreams()
	for i := 0; i < devices; i++ {
		c, err := fl.newClient(ca, i)
		if err != nil {
			fl.shutdown()
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		fl.clients = append(fl.clients, c)
	}
	fl.accepted, fl.rejected = fl.srv.AcceptedRequests(), fl.srv.RejectedRequests()
	return fl, nil
}

// acceptStreams is the stream listener's accept loop: one ServeStream
// per connection, behind the timing decorator in traced fleets.
func (fl *fleet) acceptStreams() {
	defer fl.serving.Done()
	for {
		conn, err := fl.ln.Accept()
		if err != nil {
			return
		}
		if fl.tr != nil {
			conn = &serverConn{Conn: conn, tr: fl.tr}
		}
		fl.serving.Add(1)
		go func() {
			defer fl.serving.Done()
			_ = fl.srv.ServeStream(conn) // a torn-down connection is not an error here
		}()
	}
}

func (fl *fleet) newClient(ca *pki.CA, i int) (*client, error) {
	name := fmt.Sprintf("bench-dev-%d", i)
	mod, err := flock.New(flock.DefaultConfig(sensorPlacement), ca, name, fl.seed+100+uint64(i))
	if err != nil {
		return nil, err
	}
	c := &client{
		i:      i,
		finger: fingerprint.Synthesize(fl.seed+9000+uint64(i)*13, fingerprint.PatternType(i%3)),
		acct:   fmt.Sprintf("d%d-acct", i),
	}
	if err := mod.Enroll(fingerprint.NewTemplate(c.finger)); err != nil {
		return nil, err
	}
	// Each device has its own HTTP connection pool and its own stream.
	var dialer net.Dialer
	dial := dialer.DialContext
	if fl.tr != nil {
		c.tr, c.trace = fl.tr, fl.tr.devs[i]
		dial = fl.tr.dialer(i)
	}
	hc := &http.Client{Transport: &http.Transport{DialContext: dial, MaxIdleConnsPerHost: 1}}
	addr := fl.ln.Addr().String()
	c.stream = &device.Stream{
		Dial:     func() (io.ReadWriteCloser, error) { return dial(context.Background(), "tcp", addr) },
		Fallback: &device.HTTP{BaseURL: fl.hts.URL, Client: hc, Binary: true},
	}
	var tp device.Transport = c.stream
	if fl.tr != nil {
		tp = &tracedStream{Stream: c.stream, tr: fl.tr, d: c.trace}
	}
	c.dev = device.New(name, mod, tp)
	c.fallbackCol = column(c.dev.MetricsSchema(), "dev_resume_fallbacks")
	for a := 0; !c.touch(); a++ {
		if a == 40 {
			return nil, fmt.Errorf("never touch-verified")
		}
		c.now += 400 * time.Millisecond
	}
	if err := c.dev.Register(c.now, c.acct, "recovery-pw"); err != nil {
		return nil, err
	}
	if err := c.dev.Login(c.now, fl.cert, c.acct); err != nil {
		return nil, err
	}
	if !c.stream.Streaming() {
		return nil, fmt.Errorf("stream not bound after login")
	}
	return c, nil
}

// touch presses the enrolled finger on the sensor hot-spot at the
// device's current time and reports whether FLock verified it.
func (c *client) touch() bool {
	ev := touch.Event{At: c.now, Pos: geom.Point{X: 240, Y: 720}, Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
	var id, start int64
	traced := c.tr.recording()
	if traced {
		id, start = c.tr.newID(), c.tr.now()
	}
	ok := c.dev.Touch(ev, c.finger).Kind.Verified()
	if traced {
		c.tr.child(c.trace, id, "flock.touch", start, nil)
	}
	c.touches++
	if ok {
		c.verified++
	}
	if len(c.prefix) < prefixTouches {
		c.prefix = append(c.prefix, ok)
	}
	return ok
}

// do runs one op of the fleet's workload on c, inside an op span when
// the tracer records.
func (fl *fleet) do(c *client) error {
	c.ops++
	if !fl.tr.recording() {
		_, err := fl.w.op(fl, c)
		return err
	}
	id, start := fl.tr.beginOp(c.trace)
	kind, err := fl.w.op(fl, c)
	fl.tr.endOp(c.trace, id, start, kind, err)
	return err
}

// okCalls sums the device calls the server should have accepted.
func (fl *fleet) okCalls() int {
	n := 0
	for _, c := range fl.clients {
		n += c.okCalls
	}
	return n
}

// shutdown closes every device stream and the listeners, and waits for
// the server's connection goroutines. The server itself stays open for
// the correctness checks.
func (fl *fleet) shutdown() {
	for _, c := range fl.clients {
		c.stream.Close()
		if h, ok := c.stream.Fallback.(*device.HTTP); ok {
			h.Client.CloseIdleConnections()
		}
	}
	if fl.ln != nil {
		fl.ln.Close()
	}
	fl.serving.Wait()
	if fl.hts != nil {
		fl.hts.Close()
	}
}

// close tears down a fleet without checking it.
func (fl *fleet) close() {
	fl.shutdown()
	fl.srv.Close()
}

// walDisk is a WAL image written before the timed set-up: accounts
// holds the ids of its enroll records.
type walDisk struct {
	fs       *store.MemFS
	accounts []string
}

// writeWALDisk pre-writes n enroll records into a fresh in-memory disk.
// Compaction is off while writing, so the image is one long log that
// recovery replays record by record.
func writeWALDisk(seed uint64, n int) (*walDisk, error) {
	disk := &walDisk{fs: store.NewMemFS()}
	w, err := store.OpenWAL(disk.fs, store.WALOptions{SnapshotEvery: -1})
	if err != nil {
		return nil, err
	}
	rng := pki.NewDeterministicRand(seed ^ 0xd15c)
	pub := make([]byte, 32)
	for i := 0; i < n; i++ {
		if _, err := rng.Read(pub); err != nil {
			return nil, err
		}
		id := fmt.Sprintf("pre-%07d", i)
		rec := store.Record{
			Kind:          store.KindEnroll,
			At:            time.Duration(i) * time.Millisecond,
			Account:       id,
			Gen:           uint64(i + 1),
			PublicKey:     pub,
			DeviceSubject: fmt.Sprintf("pre-dev-%d", i%64),
		}
		if err := w.Append(rec); err != nil {
			return nil, err
		}
		disk.accounts = append(disk.accounts, id)
	}
	return disk, w.Close()
}
