package obs

import (
	"math"
	"sync"
	"testing"

	"adaptiveqos/internal/metrics"
)

// The histogram lives in internal/metrics; these tests hold it to its
// contract through the public API.

// numBuckets is the histogram's bucket count.
const numBuckets = len(metrics.HistogramSnapshot{}.Buckets)

// bucketIndex observes v into a fresh histogram and reports the bucket
// it landed in.
func bucketIndex(v int64) int {
	var h Histogram
	h.Observe(v)
	for i, c := range h.Snapshot().Buckets {
		if c != 0 {
			return i
		}
	}
	return -1
}

// TestBucketBoundaries pins the power-of-two bucketing scheme: bucket
// 0 holds the value 0, bucket i holds [2^(i-1), 2^i).
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 10, 11}, {(1 << 11) - 1, 11},
		{1 << 62, 63},
		{math.MaxInt64, 63}, // the largest observable value is in the last bucket
		{-5, 0},             // negative observations clamp to zero
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}

	// Every boundary value 2^i must land in bucket i+1 while 2^i - 1
	// stays in bucket i (for i >= 1).
	for i := 1; i < 62; i++ {
		v := int64(1) << uint(i)
		if got := bucketIndex(v); got != i+1 {
			t.Errorf("bucketIndex(2^%d) = %d, want %d", i, got, i+1)
		}
		if got := bucketIndex(v - 1); got != i {
			t.Errorf("bucketIndex(2^%d - 1) = %d, want %d", i, got, i)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if metrics.BucketUpper(0) != 1 {
		t.Errorf("BucketUpper(0) = %d", metrics.BucketUpper(0))
	}
	if metrics.BucketUpper(-3) != 1 {
		t.Errorf("BucketUpper(-3) = %d", metrics.BucketUpper(-3))
	}
	if metrics.BucketUpper(5) != 32 {
		t.Errorf("BucketUpper(5) = %d", metrics.BucketUpper(5))
	}
	if metrics.BucketUpper(numBuckets-1) != math.MaxUint64 {
		t.Errorf("last bucket must be unbounded")
	}
	// Each value must be < BucketUpper(bucketIndex(v)): the bound is
	// exclusive.
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1 << 20, 1 << 40} {
		if up := metrics.BucketUpper(bucketIndex(v)); uint64(v) >= up {
			t.Errorf("value %d >= BucketUpper(its bucket) = %d", v, up)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(-50) // clamps to 0
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 4 {
		t.Errorf("sum = %d, want 4 (negative clamps to 0)", s.Sum)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[2] != 1 {
		t.Errorf("buckets = %v", s.Buckets[:4])
	}
	if got := s.Mean(); got != 1 {
		t.Errorf("mean = %g", got)
	}

	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

// TestQuantileKnownDistribution checks quantile estimates against a
// distribution whose true quantiles are known: one observation of
// every value in [0, 1024).  The log-bucket estimate must stay within
// the bracketing bucket (a factor-2 bound) and, for this distribution,
// interpolation should land very close to the exact rank.
func TestQuantileKnownDistribution(t *testing.T) {
	var h Histogram
	const n = 1024
	for v := 0; v < n; v++ {
		h.Observe(int64(v))
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d", s.Count)
	}

	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 512},
		{0.90, 921.6},
		{0.99, 1013.8},
	} {
		got := s.Quantile(tc.q)
		// Factor-2 bound from the log buckets.
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("p%d = %g, outside factor-2 of true %g", int(tc.q*100), got, tc.want)
		}
		// Interpolation within the uniform distribution should be much
		// tighter than the bucket bound.
		if math.Abs(got-tc.want) > tc.want*0.05 {
			t.Errorf("p%d = %g, want ~%g (within 5%%)", int(tc.q*100), got, tc.want)
		}
	}

	// Quantiles must be monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%.2f -> %g after %g", q, v, prev)
		}
		prev = v
	}

	// Out-of-range q clamps.
	if s.Quantile(-1) > s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("q outside [0,1] should clamp")
	}
}

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	if got := h.Snapshot().Mean(); got != 0 {
		t.Errorf("empty mean = %g", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run under -race in CI); the final count must be exact since
// recording is a single atomic add per bucket.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < perWorker; i++ {
				v = v*6364136223846793005 + 1442695040888963407 // LCG
				h.Observe(int64(uint64(v) % (1 << 20)))
				if i%1000 == 0 {
					_ = h.Snapshot().Quantile(0.9) // concurrent reads
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
}
