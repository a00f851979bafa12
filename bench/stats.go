package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (nearest rank) of xs and whether
// the sample supports it: a percentile is only reported as evidence
// when at least ten samples lie beyond it (choosing-metrics §1), so
// p90 needs n >= 100 and p99 needs n >= 1000.
func percentile(xs []float64, q float64) (v float64, supported bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(q, n)
	return s[rank], n-1-rank >= 10
}

// nearestRank is the index of the q-quantile among n >= 1 sorted samples.
func nearestRank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// highestSupported returns the largest of the standard percentiles
// (0.5, 0.9, 0.99, 0.999) that n samples support, 0 when none does.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if n > 0 && n-1-nearestRank(q, n) >= 10 {
			best = q
		}
	}
	return best
}

// lateness is the open-loop generator's honesty record: how late each
// send started relative to its due time, and the backlog (published
// minus completed) at the end of each slice.
type lateness struct {
	lateUS  []float64 // per op: max(0, actual start - due)
	backlog []float64 // per slice: ops published but not yet complete
}

// valid applies the open-loop rules: the run does not count when the
// generator itself ran late (p99 lateness above maxLateUS) or when the
// system under test could not keep up (backlog still growing over the
// last four slices).  The returned reason is empty for a valid run.
func (l *lateness) valid(maxLateUS float64) (ok bool, reason string) {
	if p99, _ := percentile(l.lateUS, 0.99); p99 > maxLateUS {
		return false, "generator lateness p99 above limit"
	}
	if backlogGrowing(l.backlog) {
		return false, "backlog still growing over the last 4 slices"
	}
	return true, ""
}

// backlogGrowing reports whether the last four slice backlogs rise
// strictly and end above four times the run's median backlog.  A queue
// that merely fluctuates (frames parked behind a gap under repair) does
// not qualify; one the system cannot drain does within a few slices.
func backlogGrowing(b []float64) bool {
	n := len(b)
	if n < 4 {
		return false
	}
	for i := n - 3; i < n; i++ {
		if b[i] <= b[i-1] {
			return false
		}
	}
	return b[n-1] > 4*median(b) && b[n-1] > 0
}

// relWorse returns by what share b is worse than a for a metric whose
// better direction is given (positive = worse, negative = better).
func relWorse(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if lowerIsBetter {
		return (b - a) / math.Abs(a)
	}
	return (a - b) / math.Abs(a)
}
