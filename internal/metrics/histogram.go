package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets covers the full int64 nanosecond range in powers of two:
// bucket 0 holds the value 0, bucket i (i >= 1) holds values in
// [2^(i-1), 2^i).  64 buckets reach ~292 years, so no latency
// overflows the last bucket in practice.
const numBuckets = 64

// Histogram is a log-bucketed (power-of-two) latency histogram, safe
// for concurrent recording: one atomic add per observation, no locks.
// Values are non-negative integers (nanoseconds on the pipeline
// paths); negative observations clamp to zero.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Uint64 // total of observed values
}

// BucketUpper returns the exclusive upper bound of bucket i (the
// smallest value that does NOT fall in it); the last bucket is
// unbounded and reports MaxUint64.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 1
	}
	if i >= numBuckets-1 {
		return math.MaxUint64
	}
	return 1 << uint(i)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	// Values in [2^(i-1), 2^i) have bit length i, and a non-negative
	// int64 has at most 63 bits, so the index never passes the last
	// bucket.
	h.counts[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [numBuckets]uint64
}

// Snapshot copies the current counts.  Buckets are read without a
// global lock, so a snapshot taken concurrently with recording is a
// consistent-enough view (each bucket individually exact).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	return s
}

// Reset zeroes the histogram (benchmarks measuring deltas).
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the
// bucket holding the target rank and interpolating linearly inside
// it.  With power-of-two buckets the estimate is within 2x of the
// true value; for the pipeline's order-of-magnitude latency questions
// that is sufficient and keeps recording to a single atomic add.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(uint64(1) << uint(i-1))
			}
			hi := lo * 2
			if i == 0 {
				hi = 1
			}
			if i >= numBuckets-1 {
				hi = lo * 2 // keep finite for interpolation
			}
			frac := (rank - seen) / float64(c)
			return lo + frac*(hi-lo)
		}
		seen += float64(c)
	}
	// Unreachable when Count > 0; return the top bucket bound.
	return float64(uint64(1) << 62)
}
