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
	dropped := metrics.C(metrics.CtrGaugeCardinalityDropped)
	before := dropped.Load()

	// limit+2 children: the first limit register, the last two are
	// dropped and counted.
	for i := 0; i < limit+2; i++ {
		metrics.SetGauge(fmt.Sprintf(`cardcap_sir{client="w%d"}`, i), float64(10*(i+1)))
	}
	registered := 0
	for name := range gauges() {
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
