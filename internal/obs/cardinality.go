package obs

import (
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// DefaultGaugeCardinalityLimit caps how many labeled children one gauge
// family may register.  Per-client families (slo_state{client=...},
// client_sir_db{client=...}) are unbounded in principle — at 100k sim
// clients a /metrics scrape, and every timeline snapshot, would walk
// 300k+ gauges.  Sets beyond the cap fold into the family's
// <family>_overflow{stat="min"|"mean"|"max"|"count"} aggregate gauges
// and bump aqos_gauge_cardinality_dropped instead of registering.
const DefaultGaugeCardinalityLimit = 256

// gaugeCardLimit holds the active limit: 0 means the default, negative
// means unlimited.
var gaugeCardLimit atomic.Int64

// gaugeDropped counts sets/lookups folded into an overflow aggregate.
var gaugeDropped = metrics.C(metrics.CtrGaugeCardinalityDropped)

// GaugeCardinalityLimit reports the active per-family cap (0 when
// uncapped).
func GaugeCardinalityLimit() int {
	n := gaugeCardLimit.Load()
	switch {
	case n == 0:
		return DefaultGaugeCardinalityLimit
	case n < 0:
		return 0
	default:
		return int(n)
	}
}

// overflowRound versions the aggregates: bumping it (one atomic, no
// locks) lazily resets every family's min/mean/max on its next
// over-cap set, so each sampling round reports that round's spread
// rather than all-time extremes.  The Collector bumps it per tick;
// without a collector the aggregates accumulate since the last bump.
var overflowRound atomic.Uint64

// StartGaugeOverflowRound begins a new overflow aggregation round.
func StartGaugeOverflowRound() { overflowRound.Add(1) }

// overflowAgg is one capped family's running aggregate plus handles to
// its fallback gauges (registered once, exempt from the cap).
type overflowAgg struct {
	round uint64
	count uint64
	sum   float64
	min   float64
	max   float64

	gMin, gMean, gMax, gCount *Gauge
}

// overflowGaugeLocked registers a fallback gauge directly, bypassing
// the cardinality accounting: the overflow family itself must never
// overflow (a limit below 4 would otherwise recurse).  Caller holds
// reg.mu.
func overflowGaugeLocked(name string) *Gauge {
	g, ok := reg.gauges[name]
	if !ok {
		g = &Gauge{}
		reg.gauges[name] = g
	}
	return g
}

// overflowObserveLocked folds one over-cap set into the family's
// aggregate and refreshes the fallback gauges.  Caller holds reg.mu.
func overflowObserveLocked(fam string, v float64) {
	a := reg.overflow[fam]
	if a == nil {
		a = &overflowAgg{
			gMin:   overflowGaugeLocked(fam + `_overflow{stat="min"}`),
			gMean:  overflowGaugeLocked(fam + `_overflow{stat="mean"}`),
			gMax:   overflowGaugeLocked(fam + `_overflow{stat="max"}`),
			gCount: overflowGaugeLocked(fam + `_overflow{stat="count"}`),
		}
		reg.overflow[fam] = a
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
