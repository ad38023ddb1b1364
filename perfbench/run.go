package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra holds figures printed for people but kept out of Metrics.
	extra []metricLine
}

type metricLine struct {
	metricDef
	value float64
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	devices int
}

const (
	// setupRuns is how many fleets an untraced run builds: the median
	// of their set-up times is setup_s. The last but one runs the closed
	// loop and the last the open loop; the others are torn down at once.
	setupRuns = 7
	// warmOps is how many ops each device runs before a measured phase,
	// so lazy state (pools, caches, connection buffers) is filled. A
	// count rather than a time keeps the state the phase starts from,
	// and so the live heap at the end, the same on a fast or slow run.
	warmOps = 500
)

// bench carries one run's state across its phases.
type bench struct {
	w      *workload
	cfg    runConfig
	disk   *walDisk // pre-written WAL image, nil for in-memory workloads
	setups []float64
	ops    phase // every op issued, warm-ups included, for failure counts
	errs   []error
}

func newBench(w *workload, cfg runConfig) (*bench, error) {
	b := &bench{w: w, cfg: cfg}
	if w.walAccounts > 0 {
		var err error
		if b.disk, err = writeWALDisk(cfg.seed, w.walAccounts); err != nil {
			return nil, fmt.Errorf("pre-writing WAL: %w", err)
		}
	}
	return b, nil
}

// build times one fleet's set-up. The disk is copied before the clock
// starts: writing it is not set-up, recovering it is.
func (b *bench) build(tr *tracer) (*fleet, error) {
	var disk *walDisk
	if b.disk != nil {
		disk = &walDisk{fs: b.disk.fs.Crash(), accounts: b.disk.accounts}
	}
	runtime.GC()
	t0 := time.Now()
	fl, err := newFleet(b.w, b.cfg.seed, b.cfg.devices, disk, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return fl, nil
}

// warm runs warmOps ops on every device at once.
func (b *bench) warm(fl *fleet) {
	parts := make([]phase, len(fl.clients))
	var wg sync.WaitGroup
	for i, c := range fl.clients {
		wg.Add(1)
		go func(c *client, p *phase) {
			defer wg.Done()
			for k := 0; k < warmOps; k++ {
				p.ops++
				if fl.do(c) != nil {
					p.failed++
				}
			}
		}(c, &parts[i])
	}
	wg.Wait()
	for _, p := range parts {
		b.ops.merge(p)
	}
	runtime.GC()
}

// closed warms fl up, then runs its closed loop for d.
func (b *bench) closed(fl *fleet, d time.Duration) phase {
	b.warm(fl)
	p := closedLoop(fl, d)
	b.ops.merge(p)
	return p
}

// gate runs the correctness checks on a finished fleet and keeps its
// touch verdicts.
func (b *bench) gate(fl *fleet) [][]bool {
	if err := fl.check(); err != nil {
		b.errs = append(b.errs, err)
	}
	return touchPrefixes(fl)
}

func (b *bench) result(m map[string]metric) result {
	return result{
		Correct:   len(b.errs) == 0,
		Attempted: b.ops.ops,
		Failed:    b.ops.failed,
		Metrics:   m,
	}
}

// runUntraced measures the end-to-end metrics: a closed loop on one
// fleet, then an open loop at the workload's fixed rate on a fresh one,
// so the live heap at the end reflects a fixed amount of work.
func runUntraced(w *workload, cfg runConfig) (result, error) {
	b, err := newBench(w, cfg)
	if err != nil {
		return result{}, err
	}
	var fl *fleet
	for r := 0; r < setupRuns-1; r++ {
		if fl != nil {
			fl.close()
		}
		if fl, err = b.build(nil); err != nil {
			return result{}, err
		}
	}
	half := cfg.seconds / 2
	closed := b.closed(fl, half)
	first := b.gate(fl)

	if fl, err = b.build(nil); err != nil {
		return result{}, err
	}
	b.warm(fl)
	open := openLoop(fl, w.rate, half)
	b.ops.merge(open)
	heap := liveHeap()
	if err := sameTouches(first, b.gate(fl)); err != nil {
		b.errs = append(b.errs, err)
	}

	p50, ok := open.windowPercentile(0.50, half)
	if !ok {
		return result{}, fmt.Errorf("open loop gave %d latency samples, too few for a median in each window", len(open.samples))
	}
	m0, m1 := closed.marks[0], closed.marks[len(closed.marks)-1]
	res := b.result(map[string]metric{
		"setup_s":    {median(b.setups), "s"},
		"ops_per_s":  {closed.opsPerSec(), "1/s"},
		"lat_p50_us": {finite(p50), "us"},
		"cpu_us_per_op": {closed.perWindow(func(a, b mark) float64 {
			return float64(b.cpu-a.cpu) / float64(time.Microsecond) / float64(b.done-a.done)
		}), "us"},
		// Allocation is not moved by outside load; over the whole phase
		// it also averages in the WAL's periodic snapshots.
		"alloc_bytes_per_op": {float64(m1.alloc-m0.alloc) / float64(m1.done-m0.done), "B"},
		"heap_live_mb":       {float64(heap) / 1e6, "MB"},
	})
	if p99, ok := open.windowPercentile(0.99, half); ok {
		res.extra = append(res.extra, metricLine{metricDef{"lat_p99_us", "us"}, finite(p99)})
	}
	res.extra = append(res.extra,
		metricLine{metricDef{"lat_samples", "count"}, float64(len(open.samples))},
		metricLine{metricDef{"fail_ratio", "ratio"}, float64(res.Failed) / float64(res.Attempted)},
	)
	return res, errors.Join(b.errs...)
}

// finite reports a latency percentile that landed on a failed op (which
// misses every limit) as the largest float, since JSON has no infinity.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// cpuTime is the process's user plus system CPU time so far: server
// and devices together, since they share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation so far.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap is the heap still reachable after forced collections; the
// second one also frees what sync.Pools kept from before the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
