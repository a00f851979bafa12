package metrics

import "sync/atomic"

// GaugeCardinalityLimit caps how many labeled children one gauge family
// may register.  Per-client families (slo_state{client=...},
// client_sir_db{client=...}) are unbounded in principle — at 100k sim
// clients a /metrics scrape, and every timeline snapshot, would walk
// 300k+ gauges.  Sets beyond the cap fold into the family's
// <family>_overflow{stat="min"|"mean"|"max"|"count"} aggregate gauges
// and bump aqos_gauge_cardinality_dropped instead of registering.
const GaugeCardinalityLimit = 256

// overflowRound versions the aggregates: bumping it (one atomic, no
// locks) lazily resets every family's min/mean/max on its next
// over-cap set, so each sampling round reports that round's spread
// rather than all-time extremes.  obs.Sample bumps it at the start of
// each round; with nothing sampling, the aggregates accumulate since
// the last bump.
var overflowRound atomic.Uint64

// StartGaugeOverflowRound begins a new overflow aggregation round.
func StartGaugeOverflowRound() { overflowRound.Add(1) }

// overflowAgg is one capped family's running aggregate plus handles to
// its fallback gauges.
type overflowAgg struct {
	round uint64
	count uint64
	sum   float64
	min   float64
	max   float64

	gMin, gMean, gMax, gCount *Gauge
}

// overflowObserveLocked folds one over-cap set into the family's
// aggregate and refreshes the fallback gauges.  The overflow family
// registers like any other: its four children sit far below the cap.
// Caller holds table.mu.
func overflowObserveLocked(fam string, v float64) {
	a := table.overflow[fam]
	if a == nil {
		a = &overflowAgg{
			gMin:   gaugeLocked(fam + `_overflow{stat="min"}`),
			gMean:  gaugeLocked(fam + `_overflow{stat="mean"}`),
			gMax:   gaugeLocked(fam + `_overflow{stat="max"}`),
			gCount: gaugeLocked(fam + `_overflow{stat="count"}`),
		}
		table.overflow[fam] = a
	}
	if cur := overflowRound.Load(); a.round != cur || a.count == 0 {
		a.round, a.count, a.sum = cur, 0, 0
		a.min, a.max = v, v
	}
	a.count++
	a.sum += v
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.gMin.Set(a.min)
	a.gMean.Set(a.sum / float64(a.count))
	a.gMax.Set(a.max)
	a.gCount.Set(float64(a.count))
}
