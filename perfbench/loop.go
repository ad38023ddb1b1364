package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// closedWindows and openWindows are how many equal windows a measured
// phase is cut into (the open loop uses more when its samples allow).
// Rates and latencies are reported as medians over the windows, so a
// burst of load from outside the process that hits a few windows does
// not move them.
const (
	closedWindows = 10
	openWindows   = 5
)

// phase is what one load phase measured. Every issued op is counted in
// ops and a failed one also in failed. A closed loop leaves marks at its
// window boundaries; an open loop leaves one sample per op.
type phase struct {
	ops, failed int
	marks       []mark
	samples     []sample
}

// mark is the process's progress at one instant of a closed loop.
type mark struct {
	at    time.Duration // since the phase start
	done  int64         // ops succeeded
	cpu   time.Duration // process CPU time
	alloc uint64        // heap bytes allocated
}

// sample is one open-loop op: when it was due, how long after that it
// started, and its latency from the due time (missed if it failed).
type sample struct{ due, late, lat time.Duration }

// missed is the latency of a failed op: beyond every limit.
const missed = time.Duration(math.MaxInt64)

func (p *phase) merge(q phase) {
	p.ops += q.ops
	p.failed += q.failed
	p.samples = append(p.samples, q.samples...)
}

// opsPerSec is a closed loop's median per-window rate of succeeded ops.
func (p phase) opsPerSec() float64 {
	return p.perWindow(func(a, b mark) float64 { return float64(b.done-a.done) / (b.at - a.at).Seconds() })
}

// closedLoop runs every client back to back for d: each sends its next
// op only when the previous one returned.
func closedLoop(fl *fleet, d time.Duration) phase {
	parts := make([]phase, len(fl.clients))
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	at := func() mark {
		return mark{at: time.Since(start), done: done.Load(), cpu: cpuTime(), alloc: allocBytes()}
	}
	marks := []mark{at()}
	var wg sync.WaitGroup
	for i, c := range fl.clients {
		wg.Add(1)
		go func(c *client, p *phase) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p.ops++
				if fl.do(c) != nil {
					p.failed++
				} else {
					done.Add(1)
				}
			}
		}(c, &parts[i])
	}
	for k := 1; k < closedWindows; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / closedWindows)))
		marks = append(marks, at())
	}
	wg.Wait()
	out := phase{marks: append(marks, at())}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// perWindow applies f to each window between consecutive marks and
// returns the median.
func (p phase) perWindow(f func(a, b mark) float64) float64 {
	var xs []float64
	for i := 1; i < len(p.marks); i++ {
		xs = append(xs, f(p.marks[i-1], p.marks[i]))
	}
	return median(xs)
}

// latWindowSamples is how many open-loop samples make one window: a
// p99 over 2000 has 20 samples beyond it.
const latWindowSamples = 2000

// windowPercentile is the median over the open loop's windows (by due
// time) of each window's q-quantile latency in microseconds; ok is false
// when a window has too few samples for it. There are at least
// openWindows windows, more when the samples allow, up to 25.
func (p phase) windowPercentile(q float64, d time.Duration) (float64, bool) {
	n := min(max(len(p.samples)/latWindowSamples, openWindows), 25)
	byWindow := make([][]time.Duration, n)
	for _, s := range p.samples {
		w := min(int(s.due*time.Duration(n)/d), n-1)
		byWindow[w] = append(byWindow[w], s.lat)
	}
	var xs []float64
	for _, lat := range byWindow {
		v, ok := percentile(micros(lat), q)
		if !ok {
			return 0, false
		}
		xs = append(xs, v)
	}
	return median(xs), true
}

// openLoop offers ops at a fixed rate for d, whatever the system's
// progress: op j is due at j/rate and goes to client j mod len(clients),
// so each device's ops stay sequential (its nonce chain requires it)
// while a stalled op delays, and is charged to, the ops queued behind it.
func openLoop(fl *fleet, rate float64, d time.Duration) phase {
	n := int(rate * d.Seconds())
	every := time.Duration(float64(time.Second) / rate)
	k := len(fl.clients)
	parts := make([]phase, k)
	start := time.Now().Add(time.Millisecond)
	// A system that cannot keep up would otherwise run unbounded: ops
	// not started by then are counted as failed.
	cutoff := 3*d + 5*time.Second
	clk := &wallClock{start: start}
	var wg sync.WaitGroup
	for i, c := range fl.clients {
		var dues []time.Duration
		for j := i; j < n; j += k {
			dues = append(dues, time.Duration(j)*every)
		}
		wg.Add(1)
		go func(c *client, p *phase) {
			defer wg.Done()
			*p = runSchedule(clk, dues, cutoff, func() error { return fl.do(c) })
		}(c, &parts[i])
	}
	wg.Wait()
	var out phase
	for _, p := range parts {
		out.merge(p)
	}
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].due < out.samples[j].due })
	return out
}

// clock is the time source runSchedule waits on; durations count from
// the phase start.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// runSchedule runs op once per due time, in order, on one client. An op
// starts at its due time or when the previous op returns, whichever is
// later, and its latency runs from the due time. Ops still unstarted
// when cutoff passes are counted as failed without running.
func runSchedule(clk clock, dues []time.Duration, cutoff time.Duration, op func() error) phase {
	var p phase
	for _, due := range dues {
		p.ops++
		clk.sleepUntil(due)
		start := clk.now()
		s := sample{due: due, late: start - due, lat: missed}
		if start <= cutoff {
			err := op()
			if end := clk.now(); err == nil {
				s.lat = end - due
			}
		}
		if s.lat == missed {
			p.failed++
		}
		p.samples = append(p.samples, s)
	}
	return p
}

// wallClock is the real clock. It waits by spinning. time.Sleep wakes
// up to a millisecond late for short waits (the runtime's poller sleeps
// in whole milliseconds), and parking on a nanosleep or a timerfd until
// just before the due time made the measured latencies several times
// larger and far less repeatable than the ops' own service times. A
// device spins only while it has no op in flight, so its spin occupies
// the processor its own next op will run on.
type wallClock struct{ start time.Time }

func (c *wallClock) now() time.Duration { return time.Since(c.start) }

func (c *wallClock) sleepUntil(t time.Duration) {
	for c.now() < t {
	}
}
