package obs

import (
	"sync/atomic"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
)

// TestCollectorVirtualClock pins the collector's scheduling to the
// clock seam: with a virtual clock installed the loop fires exactly
// when virtual time crosses the interval, and samplers registered
// after Start join the next tick.
func TestCollectorVirtualClock(t *testing.T) {
	virt := clock.NewVirtual(clock.DefaultEpoch)
	SetClock(virt)
	defer SetClock(nil)

	var samples atomic.Int64
	var lateSamples atomic.Int64
	c := NewCollector(100 * time.Millisecond)
	c.Register(func(set func(string, float64)) { samples.Add(1) })

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}
	armed := func() bool { return virt.Len() >= 1 }

	c.Start()
	defer c.Stop()
	// The loop re-arms before sampling, so waiting for the heap to hold
	// the next tick is the barrier that makes each Advance race-free.
	waitFor("initial arm", armed)
	virt.Advance(100 * time.Millisecond)
	waitFor("sample 1", func() bool { return samples.Load() == 1 })
	waitFor("re-arm 1", armed)

	// Register-after-Start joins the next fire without a restart.
	c.Register(func(set func(string, float64)) { lateSamples.Add(1) })
	virt.Advance(100 * time.Millisecond)
	waitFor("sample 2", func() bool { return samples.Load() == 2 })
	if lateSamples.Load() != 1 {
		t.Errorf("late sampler ran %d times, want 1", lateSamples.Load())
	}
	waitFor("re-arm 2", armed)

	virt.Advance(50 * time.Millisecond) // half the interval: no fire
	if got := samples.Load(); got != 2 {
		t.Errorf("samples after half-interval advance = %d, want 2", got)
	}
	virt.Advance(50 * time.Millisecond)
	waitFor("sample 3", func() bool { return samples.Load() == 3 })
}

func TestCollectorSetIntervalDefaults(t *testing.T) {
	if c := NewCollector(0); c.interval != time.Second {
		t.Errorf("NewCollector(0) interval = %v, want 1s", c.interval)
	}
	if c := NewCollector(-1); c.interval != time.Second {
		t.Errorf("NewCollector(-1) interval = %v, want 1s", c.interval)
	}
	if c := NewCollector(250 * time.Millisecond); c.interval != 250*time.Millisecond {
		t.Errorf("NewCollector(250ms) interval = %v", c.interval)
	}
}
