package metrics

import (
	"sync"
	"testing"
)

func TestCounterSetBasics(t *testing.T) {
	s := NewCounterSet()
	c := s.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("count = %d", c.Load())
	}
	if s.Counter("x") != c {
		t.Error("same name must return the same counter")
	}
	s.Counter("y").Inc()
	snap := s.Snapshot()
	if snap["x"] != 5 || snap["y"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	c.Reset()
	if c.Load() != 0 {
		t.Error("reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	s := NewCounterSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared = %d", got)
	}
}

// TestDefaultCounterFamiliesPreTouched guards the pre-touch contract:
// every declared counter family must be present in the global snapshot
// from process start, before any instrumented code path has run.
func TestDefaultCounterFamiliesPreTouched(t *testing.T) {
	snap := Counters()
	for _, name := range defaultCounterNames {
		if _, ok := snap[name]; !ok {
			t.Errorf("counter family %q not pre-touched at init", name)
		}
	}
	if len(defaultCounterNames) < 20 {
		t.Errorf("defaultCounterNames has %d entries; did a new Ctr* constant miss the list?", len(defaultCounterNames))
	}
}

func TestGlobalCounters(t *testing.T) {
	C("test.global").Add(3)
	if Counters()["test.global"] < 3 {
		t.Error("global counter not visible in snapshot")
	}
}
