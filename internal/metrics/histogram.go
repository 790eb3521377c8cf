package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bound bucketed distribution. Observe is a handful of
// atomic operations: a binary search over the (immutable) bounds, one bucket
// increment, and count/sum/min/max updates. There is no lock anywhere.
//
// Bucket i counts observations v with bounds[i-1] < v <= bounds[i]; the
// final bucket (index len(bounds)) counts v > bounds[len(bounds)-1].
type Histogram struct {
	bounds  []int64 // ascending upper bounds; immutable after creation
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search: first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// reset zeroes the distribution in place (bounds are immutable and kept).
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Bounds:  h.bounds, // immutable; safe to share
		Buckets: make([]int64, len(h.buckets)),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// DurationBounds are the default bucket upper bounds for durations, in
// nanoseconds: roughly logarithmic from 10µs to 10s, matched to the
// millisecond-scale workloads of the corpus (bugs.RunConfig latency model).
func DurationBounds() []int64 {
	return []int64{
		int64(10 * time.Microsecond),
		int64(25 * time.Microsecond),
		int64(50 * time.Microsecond),
		int64(100 * time.Microsecond),
		int64(250 * time.Microsecond),
		int64(500 * time.Microsecond),
		int64(time.Millisecond),
		int64(2500 * time.Microsecond),
		int64(5 * time.Millisecond),
		int64(10 * time.Millisecond),
		int64(25 * time.Millisecond),
		int64(50 * time.Millisecond),
		int64(100 * time.Millisecond),
		int64(250 * time.Millisecond),
		int64(500 * time.Millisecond),
		int64(time.Second),
		int64(10 * time.Second),
	}
}

// DepthBounds are the default bucket upper bounds for queue depths.
func DepthBounds() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}
