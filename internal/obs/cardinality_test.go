package obs

import (
	"fmt"
	"strings"
	"testing"

	"adaptiveqos/internal/metrics"
)

func TestGaugeCardinalityCap(t *testing.T) {
	SetGaugeCardinalityLimit(4)
	defer SetGaugeCardinalityLimit(DefaultGaugeCardinalityLimit)
	StartGaugeOverflowRound() // fresh aggregates even under -count=2
	dropped := metrics.C(metrics.CtrGaugeCardinalityDropped)
	before := dropped.Load()

	// Six children against a cap of 4: the first four register, the
	// last two fold into the family's overflow aggregates.
	for i := 0; i < 6; i++ {
		SetGauge(fmt.Sprintf(`cardcap_sir{client="w%d"}`, i), float64(10*(i+1)))
	}
	all := Gauges()
	registered := 0
	for name := range all {
		if strings.HasPrefix(name, "cardcap_sir{") {
			registered++
		}
	}
	if registered != 4 {
		t.Errorf("registered children = %d, want 4 (the cap)", registered)
	}
	if got := dropped.Load() - before; got != 2 {
		t.Errorf("dropped counter advanced by %d, want 2", got)
	}
	// Overflow aggregates carry the over-cap values 50 and 60.
	if v := all[`cardcap_sir_overflow{stat="min"}`]; v != 50 {
		t.Errorf("overflow min = %g, want 50", v)
	}
	if v := all[`cardcap_sir_overflow{stat="max"}`]; v != 60 {
		t.Errorf("overflow max = %g, want 60", v)
	}
	if v := all[`cardcap_sir_overflow{stat="mean"}`]; v != 55 {
		t.Errorf("overflow mean = %g, want 55", v)
	}
	if v := all[`cardcap_sir_overflow{stat="count"}`]; v != 2 {
		t.Errorf("overflow count = %g, want 2", v)
	}

	// Unlabeled names never count against a family cap.
	for i := 0; i < 6; i++ {
		SetGauge(fmt.Sprintf("cardcap_plain_%d", i), 1)
	}
	plain := 0
	for name := range Gauges() {
		if strings.HasPrefix(name, "cardcap_plain_") {
			plain++
		}
	}
	if plain != 6 {
		t.Errorf("unlabeled gauges registered = %d, want all 6", plain)
	}
}

func TestGaugeOverflowRoundReset(t *testing.T) {
	SetGaugeCardinalityLimit(1)
	defer SetGaugeCardinalityLimit(DefaultGaugeCardinalityLimit)
	StartGaugeOverflowRound()         // fresh aggregates even under -count=2
	SetGauge(`cardround_v{c="a"}`, 1) // occupies the family's single slot

	SetGauge(`cardround_v{c="b"}`, 100)
	SetGauge(`cardround_v{c="c"}`, 300)
	all := Gauges()
	if all[`cardround_v_overflow{stat="max"}`] != 300 || all[`cardround_v_overflow{stat="count"}`] != 2 {
		t.Errorf("round 1 aggregates: max=%g count=%g, want 300/2",
			all[`cardround_v_overflow{stat="max"}`], all[`cardround_v_overflow{stat="count"}`])
	}

	// A new round re-bases the aggregate on its first observation, so
	// the reported spread describes this round, not all-time extremes.
	StartGaugeOverflowRound()
	SetGauge(`cardround_v{c="b"}`, 7)
	all = Gauges()
	if all[`cardround_v_overflow{stat="min"}`] != 7 || all[`cardround_v_overflow{stat="max"}`] != 7 {
		t.Errorf("round 2 aggregates: min=%g max=%g, want 7/7",
			all[`cardround_v_overflow{stat="min"}`], all[`cardround_v_overflow{stat="max"}`])
	}
	if all[`cardround_v_overflow{stat="count"}`] != 1 {
		t.Errorf("round 2 count = %g, want 1", all[`cardround_v_overflow{stat="count"}`])
	}

	// A tiny cap must not recurse through the overflow family itself.
	SetGauge(`cardround_v_overflow{stat="min"}`, 0) // direct set on a fallback gauge name
}

func TestGaugeCardinalityUncapped(t *testing.T) {
	SetGaugeCardinalityLimit(-1)
	defer SetGaugeCardinalityLimit(DefaultGaugeCardinalityLimit)
	if GaugeCardinalityLimit() != 0 {
		t.Fatalf("GaugeCardinalityLimit = %d, want 0 (uncapped)", GaugeCardinalityLimit())
	}
	for i := 0; i < 300; i++ {
		SetGauge(fmt.Sprintf(`carduncap_v{c="%d"}`, i), 1)
	}
	n := 0
	for name := range Gauges() {
		if strings.HasPrefix(name, "carduncap_v{") {
			n++
		}
	}
	if n != 300 {
		t.Errorf("uncapped family registered %d children, want 300", n)
	}
}
