package obs

import (
	"fmt"
	"strings"
	"testing"

	"adaptiveqos/internal/metrics"
)

// The gauge cardinality cap lives with the registry in internal/metrics;
// these tests drive it through the gauge set Sample feeds.

func TestGaugeCardinalityCap(t *testing.T) {
	const limit = metrics.GaugeCardinalityLimit
	metrics.StartGaugeOverflowRound() // fresh aggregates even under -count=2
	dropped := metrics.C(metrics.CtrGaugeCardinalityDropped)
	before := dropped.Load()

	// limit+2 children: the first limit register, the last two fold into
	// the family's overflow aggregates.
	for i := 0; i < limit+2; i++ {
		metrics.SetGauge(fmt.Sprintf(`cardcap_sir{client="w%d"}`, i), float64(10*(i+1)))
	}
	all := gauges()
	registered := 0
	for name := range all {
		if strings.HasPrefix(name, "cardcap_sir{") {
			registered++
		}
	}
	if registered != limit {
		t.Errorf("registered children = %d, want %d (the cap)", registered, limit)
	}
	if got := dropped.Load() - before; got != 2 {
		t.Errorf("dropped counter advanced by %d, want 2", got)
	}
	// Overflow aggregates carry the two over-cap values.
	lo, hi := float64(10*(limit+1)), float64(10*(limit+2))
	if v := all[`cardcap_sir_overflow{stat="min"}`]; v != lo {
		t.Errorf("overflow min = %g, want %g", v, lo)
	}
	if v := all[`cardcap_sir_overflow{stat="max"}`]; v != hi {
		t.Errorf("overflow max = %g, want %g", v, hi)
	}
	if v := all[`cardcap_sir_overflow{stat="mean"}`]; v != (lo+hi)/2 {
		t.Errorf("overflow mean = %g, want %g", v, (lo+hi)/2)
	}
	if v := all[`cardcap_sir_overflow{stat="count"}`]; v != 2 {
		t.Errorf("overflow count = %g, want 2", v)
	}

	// Unlabeled names never count against a family cap.
	for i := 0; i < limit+2; i++ {
		metrics.SetGauge(fmt.Sprintf("cardcap_plain_%d", i), 1)
	}
	plain := 0
	for name := range gauges() {
		if strings.HasPrefix(name, "cardcap_plain_") {
			plain++
		}
	}
	if plain != limit+2 {
		t.Errorf("unlabeled gauges registered = %d, want all %d", plain, limit+2)
	}
}

func TestGaugeOverflowRoundReset(t *testing.T) {
	metrics.StartGaugeOverflowRound() // fresh aggregates even under -count=2
	for i := 0; i < metrics.GaugeCardinalityLimit; i++ {
		metrics.SetGauge(fmt.Sprintf(`cardround_v{c="%d"}`, i), 1) // fills the family
	}

	metrics.SetGauge(`cardround_v{c="b"}`, 100)
	metrics.SetGauge(`cardround_v{c="c"}`, 300)
	all := gauges()
	if all[`cardround_v_overflow{stat="max"}`] != 300 || all[`cardround_v_overflow{stat="count"}`] != 2 {
		t.Errorf("round 1 aggregates: max=%g count=%g, want 300/2",
			all[`cardround_v_overflow{stat="max"}`], all[`cardround_v_overflow{stat="count"}`])
	}

	// A new round re-bases the aggregate on its first observation, so
	// the reported spread describes this round, not all-time extremes.
	metrics.StartGaugeOverflowRound()
	metrics.SetGauge(`cardround_v{c="b"}`, 7)
	all = gauges()
	if all[`cardround_v_overflow{stat="min"}`] != 7 || all[`cardround_v_overflow{stat="max"}`] != 7 {
		t.Errorf("round 2 aggregates: min=%g max=%g, want 7/7",
			all[`cardround_v_overflow{stat="min"}`], all[`cardround_v_overflow{stat="max"}`])
	}
	if all[`cardround_v_overflow{stat="count"}`] != 1 {
		t.Errorf("round 2 count = %g, want 1", all[`cardround_v_overflow{stat="count"}`])
	}
}
