package ftdc

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the fixed bucket count of Hist: bucket i covers
// durations in [2^(i-1)µs, 2^i µs), bucket 0 everything under 1µs, and
// the last bucket everything from ~2^(HistBuckets-2)µs (≈ 9 hours of
// virtual time) up. Power-of-two microsecond edges trade fine
// resolution for a histogram that is fixed-size, allocation-free, and
// whose quantiles are deterministic functions of the counts — no
// sampling, no reservoirs.
const HistBuckets = 36

// Hist is a concurrency-safe fixed-bucket latency histogram on the
// virtual clock. The zero value is ready to use; Observe is a single
// atomic increment, so it sits directly on server hot paths.
type Hist struct {
	buckets [HistBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	i := bits.Len64(uint64(d / time.Microsecond)) // 1µs → 1, 2µs → 2, ...
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// bucketUpper is the inclusive upper edge reported for a bucket — the
// value Quantile returns for observations landing in it.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(1<<uint(i)) * time.Microsecond // 2^i µs
}

// Observe records one duration. Negative durations (a gap measured
// against a client-supplied clock that moved backwards) clamp into
// bucket 0 rather than corrupting the counts.
func (h *Hist) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
}

// Count reports the total number of observations.
func (h *Hist) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns the upper edge of the bucket containing the q-th
// quantile observation (q in [0,1]), or 0 when empty. The result is a
// deterministic function of the counts: same observations, same
// answer, regardless of arrival order or worker count.
func (h *Hist) Quantile(q float64) time.Duration {
	var counts [HistBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(HistBuckets - 1)
}
