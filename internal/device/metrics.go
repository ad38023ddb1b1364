package device

import (
	"sync/atomic"

	"trust/internal/ftdc"
)

// deviceTel counts the device's recovery machinery firing: every
// counter here is an event the happy path never produces, so a capture
// of a healthy run is all zeros and a chaos run's counters localize
// which fallback absorbed the faults. Counters are atomic so a capture
// can sample them from another goroutine while the interaction loop
// browses.
type deviceTel struct {
	// retries counts backoff-then-redeliver rounds across the
	// *Resilient flows (one per wait, not per attempt).
	retries atomic.Int64
	// resyncs counts nonce-resynchronization round trips (Resync).
	resyncs atomic.Int64
	// resumeFallbacks counts resume-first logins that fell back to the
	// full cold path with a ticket in hand (a spent, rejected, or
	// fate-unknown ticket — not the routine no-ticket case).
	resumeFallbacks atomic.Int64
	// degradedEnters counts entries into local-cache degraded mode.
	degradedEnters atomic.Int64
}

// streamStatser is the transport facet exposing stream connection
// stats; only the streamed transport implements it.
type streamStatser interface{ Stats() StreamStats }

// streamStats returns the transport's stream connection stats, zero
// when the transport is not streamed.
func (d *Device) streamStats() StreamStats {
	if ss, ok := d.transport.(streamStatser); ok {
		return ss.Stats()
	}
	return StreamStats{}
}

// metrics is the device's telemetry table: MetricsSchema and
// AppendMetrics are both generated from it. The last three columns are
// zero when the transport is not streamed. Add a column as one row at
// the end.
var metrics = ftdc.Table[*Device]{
	{Name: "dev_retries", Read: func(d *Device) int64 { return d.tel.retries.Load() }},
	{Name: "dev_resyncs", Read: func(d *Device) int64 { return d.tel.resyncs.Load() }},
	{Name: "dev_resume_fallbacks", Read: func(d *Device) int64 { return d.tel.resumeFallbacks.Load() }},
	{Name: "dev_degraded_enters", Read: func(d *Device) int64 { return d.tel.degradedEnters.Load() }},
	{Name: "dev_stream_dials", Read: func(d *Device) int64 { return int64(d.streamStats().Dials) }},
	{Name: "dev_stream_redials", Read: func(d *Device) int64 { return int64(d.streamStats().Redials) }},
	{Name: "dev_stream_downgrades", Read: func(d *Device) int64 { return int64(d.streamStats().Downgrades) }},
}

// MetricsSchema returns the device's telemetry column names, in the
// exact order AppendMetrics emits values.
func (d *Device) MetricsSchema() []string { return metrics.Names() }

// AppendMetrics appends the current telemetry values to vals in
// MetricsSchema order and returns the extended slice.
func (d *Device) AppendMetrics(vals []int64) []int64 { return metrics.Append(vals, d) }
