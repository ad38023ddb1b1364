package webserver

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trust/internal/ftdc"
)

// telemetry is the server's always-on counter block. Every field is an
// atomic or an ftdc.Hist (itself atomic), so handlers bump them
// lock-free on the hot path; the capture side reads them through the
// metrics table. Counters only ever increase — the capture's delta
// encoding turns a flat counter into a run of zero bytes.
type telemetry struct {
	accepted      atomic.Int64 // requests the handlers accepted
	rejected      atomic.Int64 // requests the handlers rejected; bumped only by reject
	fullLogins    atomic.Int64 // HandleLogin successes (Fig 10 cold path)
	resumeLogins  atomic.Int64 // ticket-resume successes (HTTP + stream)
	degradedTrips atomic.Int64 // 0→1 transitions of the degraded latch
	storageErrors atomic.Int64 // requests rejected with ErrStorage
	hbClamped     atomic.Int64 // stream heartbeats that tried to move time backwards
	hbRejected    atomic.Int64 // stream heartbeats rejected for an absurd forward jump

	// Flow-latency histograms on the virtual clock. The enroll/login/
	// resume samples measure page-served to submission (the consumed
	// nonce's age); page/resync measure the inter-request gap on a
	// session — the continuous-auth cadence the risk window assumes.
	enroll ftdc.Hist
	login  ftdc.Hist
	resume ftdc.Hist
	page   ftdc.Hist
	resync ftdc.Hist
}

// reject is the rejection funnel: every request a handler refuses, on
// every front, passes through here exactly once on its way back to the
// caller, so no rejection site can forget the counter.
func (s *Server) reject(err error) error {
	s.tel.rejected.Add(1)
	return err
}

// tripDegraded latches degraded mode and counts the transition. The
// CAS makes the trip count exact under concurrent backend failures:
// of N racing failed appends exactly one observes the 0→1 edge.
func (s *Server) tripDegraded() {
	if s.degraded.CompareAndSwap(false, true) {
		s.tel.degradedTrips.Add(1)
	}
}

// failStorage records a storage-classified rejection; callers pair it
// with the ErrStorage rejection they return so the storage_errors
// column always matches the 503s clients observed.
func (s *Server) failStorage() {
	s.tel.storageErrors.Add(1)
}

// metrics is the server's telemetry table (docs/telemetry.md "Schema
// registry"): MetricsSchema and AppendMetrics are both generated from
// it. The schema is fixed at build time — columns never appear or
// vanish at runtime, which is what lets two captures diff
// metric-by-metric. Add a column as one row at the end of its block.
var metrics = slices.Concat(
	ftdc.Table[*Server]{
		{Name: "accepted", Read: func(s *Server) int64 { return s.tel.accepted.Load() }},
		{Name: "rejected", Read: func(s *Server) int64 { return s.tel.rejected.Load() }},
		{Name: "logins_full", Read: func(s *Server) int64 { return s.tel.fullLogins.Load() }},
		{Name: "logins_resume", Read: func(s *Server) int64 { return s.tel.resumeLogins.Load() }},
		{Name: "degraded", Read: func(s *Server) int64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		}},
		{Name: "degraded_trips", Read: func(s *Server) int64 { return s.tel.degradedTrips.Load() }},
		{Name: "storage_errors", Read: func(s *Server) int64 { return s.tel.storageErrors.Load() }},
		{Name: "nonce_evictions", Read: func(s *Server) int64 { return s.nonces.evictions.Load() }},
		{Name: "streams", Read: func(s *Server) int64 { return int64(s.StreamCount()) }},
		{Name: "hb_clamped", Read: func(s *Server) int64 { return s.tel.hbClamped.Load() }},
		{Name: "hb_rejected", Read: func(s *Server) int64 { return s.tel.hbRejected.Load() }},
	},
	shardColumns("sessions", func(s *Server, i int) int { return s.sessions.shardLen(i) }),
	shardColumns("accounts", func(s *Server, i int) int { return s.accounts.shardLen(i) }),
	shardColumns("nonces", func(s *Server, i int) int { return s.nonces.shardLen(i) }),
	ftdc.HistColumns("enroll", func(s *Server) *ftdc.Hist { return &s.tel.enroll }),
	ftdc.HistColumns("login", func(s *Server) *ftdc.Hist { return &s.tel.login }),
	ftdc.HistColumns("resume", func(s *Server) *ftdc.Hist { return &s.tel.resume }),
	ftdc.HistColumns("page", func(s *Server) *ftdc.Hist { return &s.tel.page }),
	ftdc.HistColumns("resync", func(s *Server) *ftdc.Hist { return &s.tel.resync }),
)

// shardColumns returns one per-shard depth column per store shard,
// named prefix_shard00..15.
func shardColumns(prefix string, shardLen func(s *Server, i int) int) ftdc.Table[*Server] {
	cols := make(ftdc.Table[*Server], numShards)
	for i := range cols {
		cols[i] = ftdc.Column[*Server]{
			Name: fmt.Sprintf("%s_shard%02d", prefix, i),
			Read: func(s *Server) int64 { return int64(shardLen(s, i)) },
		}
	}
	return cols
}

// MetricsSchema returns the server's telemetry columns in capture
// order — the order AppendMetrics emits values.
func (s *Server) MetricsSchema() []string { return metrics.Names() }

// AppendMetrics appends one value per MetricsSchema column — the
// capture's row. It allocates nothing beyond the caller's slice, and
// is safe to call concurrently with traffic.
func (s *Server) AppendMetrics(vals []int64) []int64 { return metrics.Append(vals, s) }

// Metric reads one named telemetry column, reporting false when the
// schema has no such column.
func (s *Server) Metric(name string) (int64, bool) { return metrics.Value(s, name) }

// ftdcState is the server's optional self-capture: when enabled, every
// every-th HTTP request samples AppendMetrics at that request's virtual
// time. One mutex serializes sampling; it nests outside the store
// locks AppendMetrics takes (a new root in the documented hierarchy —
// nothing acquires it while holding a store lock).
type ftdcState struct {
	mu      sync.Mutex
	capture *ftdc.Capture
	every   int64
	seen    int64
	scratch []int64
}

// EnableFTDC turns on the server's request-driven telemetry capture:
// one sample per every-th request, timestamped with the request's
// virtual "now". Call before serving traffic. The capture is served
// back over GET /trust/ftdc and via FTDCBytes.
func (s *Server) EnableFTDC(every int) {
	if every < 1 {
		every = 1
	}
	st := &ftdcState{capture: ftdc.NewCapture(ftdc.NewSchema(s.MetricsSchema())), every: int64(every)}
	s.ftdc.Store(st)
}

// FTDCBytes returns a copy of the capture recorded so far (nil when
// EnableFTDC was never called).
func (s *Server) FTDCBytes() []byte {
	st := s.ftdc.Load()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]byte(nil), st.capture.Bytes()...)
}

// observeFTDC is the per-request sampling hook Handler installs.
func (s *Server) observeFTDC(now time.Duration) {
	st := s.ftdc.Load()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seen++
	if st.seen%st.every != 0 {
		return
	}
	st.scratch = s.AppendMetrics(st.scratch[:0])
	st.capture.Sample(int64(now), st.scratch)
}

// handleFTDC serves the capture as an octet stream; 404 until
// EnableFTDC is called (trustserver -ftdc).
func (s *Server) handleFTDC(w http.ResponseWriter, r *http.Request) {
	data := s.FTDCBytes()
	if data == nil {
		http.Error(w, "ftdc capture not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", binaryMIME)
	w.Write(data)
}
