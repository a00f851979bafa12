package slo

import (
	"testing"
	"time"
)

func TestSeriesWindowBasics(t *testing.T) {
	s := newSeries(1600 * time.Millisecond) // 100ms buckets
	base := time.Unix(1000, 0).UnixNano()

	for i := 0; i < 4; i++ {
		s.observe(base+int64(i)*int64(100*time.Millisecond), 0.5, i%2 == 0)
	}
	now := base + int64(300*time.Millisecond)
	count, bad, sum := s.window(now, 400*time.Millisecond)
	if count != 4 || bad != 2 {
		t.Fatalf("window = count %d bad %d, want 4/2", count, bad)
	}
	if sum != 2.0 {
		t.Fatalf("window sum = %g, want 2.0", sum)
	}

	// A narrower span sees only the trailing buckets.
	count, bad, _ = s.window(now, 200*time.Millisecond)
	if count != 2 || bad != 1 {
		t.Fatalf("short window = count %d bad %d, want 2/1", count, bad)
	}
}

func TestSeriesRotationZeroesSkippedBuckets(t *testing.T) {
	s := newSeries(1600 * time.Millisecond)
	base := time.Unix(1000, 0).UnixNano()

	s.observe(base, 1, true)
	// Jump far past the ring: every bucket between must read empty.
	later := base + int64(10*time.Second)
	s.observe(later, 1, false)
	count, bad, _ := s.window(later, 1600*time.Millisecond)
	if count != 1 || bad != 0 {
		t.Fatalf("after long idle: count %d bad %d, want 1/0 (stale data leaked)", count, bad)
	}
}

func TestSeriesIdleWindowIsEmpty(t *testing.T) {
	s := newSeries(1600 * time.Millisecond)
	base := time.Unix(1000, 0).UnixNano()
	s.observe(base, 1, true)
	// Query two long-windows later without observing: all rotated away.
	count, _, _ := s.window(base+int64(4*time.Second), 1600*time.Millisecond)
	if count != 0 {
		t.Fatalf("idle window count = %d, want 0", count)
	}
}

func TestBurnRate(t *testing.T) {
	sp := Spec{DeliveryP99: 100 * time.Millisecond, LossMax: 0.1,
		ShortWindow: time.Second, LongWindow: 4 * time.Second}.withDefaults()
	base := time.Unix(1000, 0).UnixNano()

	// Delivery: bad fraction over the 1% budget.
	ser := newSeries(sp.LongWindow)
	for i := 0; i < 100; i++ {
		v := float64(10 * time.Millisecond)
		if i < 2 {
			v = float64(500 * time.Millisecond)
		}
		ser.observe(base, v, sp.bad(ObjDelivery, v))
	}
	if burn := sp.burnRate(ObjDelivery, &ser, base, sp.ShortWindow); burn < 1.9 || burn > 2.1 {
		t.Fatalf("delivery burn = %g, want ~2 (2%% bad over 1%% budget)", burn)
	}

	// Loss: mean sampled fraction over the budget.
	ls := newSeries(sp.LongWindow)
	ls.observe(base, 0.15, sp.bad(ObjLoss, 0.15))
	ls.observe(base, 0.25, sp.bad(ObjLoss, 0.25))
	if burn := sp.burnRate(ObjLoss, &ls, base, sp.ShortWindow); burn < 1.99 || burn > 2.01 {
		t.Fatalf("loss burn = %g, want 2.0 (mean 0.2 over 0.1 budget)", burn)
	}

	// Empty window burns nothing; disabled objective burns nothing.
	empty := newSeries(sp.LongWindow)
	if burn := sp.burnRate(ObjDelivery, &empty, base, sp.ShortWindow); burn != 0 {
		t.Fatalf("empty-window burn = %g, want 0", burn)
	}
	if burn := sp.burnRate(ObjRepair, &ser, base, sp.ShortWindow); burn != 0 {
		t.Fatalf("disabled-objective burn = %g, want 0", burn)
	}
}

func TestSpecPresetsAndClassification(t *testing.T) {
	for _, class := range []string{"realtime", "interactive", "bulk"} {
		sp := SpecForClass(class)
		if sp.Class != class {
			t.Errorf("SpecForClass(%q).Class = %q", class, sp.Class)
		}
		for o := Objective(0); o < numObjectives; o++ {
			if _, enabled := sp.budget(o); !enabled {
				t.Errorf("%s: objective %s disabled in preset", class, o)
			}
		}
	}
	sp := SpecForClass("interactive")
	if !sp.bad(ObjDelivery, float64(200*time.Millisecond)) || sp.bad(ObjDelivery, float64(time.Millisecond)) {
		t.Error("delivery classification wrong")
	}
	if !sp.bad(ObjTier, 0) || sp.bad(ObjTier, 2) {
		t.Error("tier classification wrong")
	}
	if !sp.bad(ObjLoss, 0.5) || sp.bad(ObjLoss, 0.01) {
		t.Error("loss classification wrong")
	}
	if !sp.bad(ObjRepair, float64(5*time.Second)) || sp.bad(ObjRepair, float64(time.Millisecond)) {
		t.Error("repair classification wrong")
	}
}
