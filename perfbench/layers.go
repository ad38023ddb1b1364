package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Layer names the per-layer metrics use: the device op kinds, the
// transport methods and the webserver endpoints these workloads reach.
var (
	opKinds          = []string{"page", "login", "resume", "enroll"}
	transportMethods = []string{"FetchRegistrationPage", "SubmitRegistration", "FetchLoginPage", "SubmitLogin", "SubmitResume", "SubmitPageRequest", "BindSession"}
	endpoints        = []string{"http.register_page", "http.register", "http.login_page", "http.login", "stream.hello", "stream.resume", "stream.page"}
)

// endToEnd lists the untraced run's metrics in its JSON result.
// lat_p99_us and fail_ratio are printed beside them but left out: on a
// shared 2-vCPU host the p99 is set by millisecond stalls outside the
// process and moved by a factor of three between runs of one commit, and
// a clean run's fail_ratio is 0; the result's failed/attempted fields
// carry the failures instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "B"},
	{"heap_live_mb", "MB"},
}

type metricDef struct{ name, unit string }

// perLayer lists the traced run's metrics in report order.
func perLayer() []metricDef {
	var ms []metricDef
	for _, k := range opKinds {
		ms = append(ms, metricDef{"device.self_us." + k + ".p50", "us"})
	}
	ms = append(ms,
		metricDef{"flock.touch_us.p50", "us"},
		metricDef{"flock.touch_us.p99", "us"},
		metricDef{"flock.touches", "count"},
		metricDef{"flock.verified_ratio", "ratio"},
	)
	for _, m := range transportMethods {
		ms = append(ms, metricDef{"transport.call_us." + m + ".p50", "us"})
	}
	ms = append(ms,
		metricDef{"transport.self_us.p50", "us"},
		metricDef{"transport.dials", "count"},
		metricDef{"transport.redials", "count"},
		metricDef{"transport.downgrades", "count"},
	)
	for _, e := range endpoints {
		ms = append(ms, metricDef{"webserver.busy_us." + e + ".p50", "us"}, metricDef{"webserver.busy_us." + e + ".p99", "us"})
	}
	return append(ms,
		metricDef{"webserver.accepted", "count"},
		metricDef{"webserver.rejected", "count"},
		metricDef{"webserver.nonce_evictions", "count"},
		metricDef{"webserver.sessions", "count"},
		metricDef{"store.append_us.p50", "us"},
		metricDef{"store.append_us.p99", "us"},
		metricDef{"store.appends", "count"},
		metricDef{"store.append_errors", "count"},
		metricDef{"store.snapshots", "count"},
		metricDef{"store.recover_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"gen.lat_p99_us", "us"},
		metricDef{"gen.late_p99_us", "us"},
		metricDef{"gen.late_max_us", "us"},
		metricDef{"gen.lat_samples", "count"},
		metricDef{"gen.fail_ratio", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

// counters is a snapshot of the counters the traced phases report as
// deltas.
type counters struct {
	accepted, rejected, evictions int64
	dials, redials, downgrades    int
	touches, verified             int
	snapshots                     int
	gcCycles                      uint32
	gcPause                       uint64
}

func snapshot(fl *fleet) counters {
	row := fl.srv.AppendMetrics(nil)
	schema := fl.srv.MetricsSchema()
	c := counters{
		accepted:  row[column(schema, "accepted")],
		rejected:  row[column(schema, "rejected")],
		evictions: row[column(schema, "nonce_evictions")],
	}
	for _, cl := range fl.clients {
		st := cl.stream.Stats()
		c.dials += st.Dials
		c.redials += st.Redials
		c.downgrades += st.Downgrades
		c.touches += cl.touches
		c.verified += cl.verified
	}
	if fl.wal != nil {
		c.snapshots = fl.wal.Stats().Snapshots
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcCycles, c.gcPause = ms.NumGC, ms.PauseTotalNs
	return c
}

// runTraced measures the per-layer metrics. An untraced closed loop on
// one fleet gives the reference throughput; a second fleet with the
// timing decorators then runs a closed and an open loop while they
// record. trace.overhead_ratio is how much slower the traced closed
// loop ran.
func runTraced(w *workload, cfg runConfig) (result, error) {
	b, err := newBench(w, cfg)
	if err != nil {
		return result{}, err
	}
	quarter := cfg.seconds / 4
	fl, err := b.build(nil)
	if err != nil {
		return result{}, err
	}
	ref := b.closed(fl, quarter)
	first := b.gate(fl)

	tr := newTracer(cfg.devices)
	if fl, err = b.build(tr); err != nil {
		return result{}, err
	}
	b.warm(fl)
	before := snapshot(fl)
	tr.on.Store(true)
	closed := closedLoop(fl, quarter)
	open := openLoop(fl, w.rate, 2*quarter)
	tr.on.Store(false)
	after := snapshot(fl)
	b.ops.merge(closed)
	b.ops.merge(open)

	m := spanMetrics(tr.allSpans())
	if touches := after.touches - before.touches; touches > 0 {
		m["flock.touches"] = float64(touches)
		m["flock.verified_ratio"] = float64(after.verified-before.verified) / float64(touches)
	}
	m["transport.dials"] = float64(after.dials - before.dials)
	m["transport.redials"] = float64(after.redials - before.redials)
	m["transport.downgrades"] = float64(after.downgrades - before.downgrades)
	m["webserver.accepted"] = float64(after.accepted - before.accepted)
	m["webserver.rejected"] = float64(after.rejected - before.rejected)
	m["webserver.nonce_evictions"] = float64(after.evictions - before.evictions)
	m["webserver.sessions"] = float64(fl.srv.SessionCount())
	m["store.snapshots"] = float64(after.snapshots - before.snapshots)
	m["store.recover_s"] = fl.recoverTime.Seconds()
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["runtime.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
	var lates []time.Duration
	for _, s := range open.samples {
		lates = append(lates, s.late)
	}
	late := micros(lates)
	m["gen.late_p99_us"], _ = percentile(late, 0.99)
	if len(late) > 0 {
		m["gen.late_max_us"] = late[len(late)-1]
	}
	p99, _ := open.windowPercentile(0.99, 2*quarter)
	m["gen.lat_p99_us"] = finite(p99)
	m["gen.lat_samples"] = float64(len(open.samples))
	m["gen.fail_ratio"] = float64(b.ops.failed) / float64(b.ops.ops)
	m["trace.overhead_ratio"] = ref.opsPerSec()/closed.opsPerSec() - 1

	if err := sameTouches(first, b.gate(fl)); err != nil {
		b.errs = append(b.errs, err)
	}
	if path, err := tr.write(".bench_build/trace", w.name); err != nil {
		b.errs = append(b.errs, fmt.Errorf("writing spans: %w", err))
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	out := make(map[string]metric)
	for _, d := range perLayer() {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return b.result(out), errors.Join(b.errs...)
}

// spanMetrics derives the span-based per-layer metrics: durations per
// span name, device self time per op kind (op minus its transport calls
// and touches), transport self time (call minus the server's busy time
// inside it). A percentile without ten samples beyond it reads 0.
func spanMetrics(spans []span) map[string]float64 {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s.interval())
		}
	}
	samples := make(map[string][]float64)
	add := func(name string, ns int64) {
		samples[name] = append(samples[name], float64(ns)/float64(time.Microsecond))
	}
	m := make(map[string]float64)
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.name, "op."):
			add("device.self_us."+strings.TrimPrefix(s.name, "op."), selfTime(s.interval(), children[s.id]))
		case strings.HasPrefix(s.name, "transport."):
			add("transport.call_us."+strings.TrimPrefix(s.name, "transport."), s.end-s.start)
			add("transport.self_us", selfTime(s.interval(), children[s.id]))
		case strings.HasPrefix(s.name, "webserver."):
			add("webserver.busy_us."+strings.TrimPrefix(s.name, "webserver."), s.end-s.start)
		case s.name == "flock.touch":
			add("flock.touch_us", s.end-s.start)
		case s.name == "store.append":
			add("store.append_us", s.end-s.start)
			m["store.appends"]++
			if s.failed {
				m["store.append_errors"]++
			}
		}
	}
	for name, xs := range samples {
		sort.Float64s(xs)
		m[name+".p50"], _ = percentile(xs, 0.50)
		m[name+".p99"], _ = percentile(xs, 0.99)
	}
	return m
}
