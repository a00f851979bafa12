package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	c := C("test.basics.x")
	c.Reset() // -count=2 reruns see the process-global value
	C("test.basics.y").Reset()
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("count = %d", c.Load())
	}
	if C("test.basics.x") != c {
		t.Error("same name must return the same counter")
	}
	C("test.basics.y").Inc()
	snap := Counters()
	if snap["test.basics.x"] != 5 || snap["test.basics.y"] != 1 {
		t.Errorf("snapshot x=%d y=%d, want 5 and 1", snap["test.basics.x"], snap["test.basics.y"])
	}
	c.Reset()
	if c.Load() != 0 {
		t.Error("reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	C("test.concurrent.shared").Reset()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				C("test.concurrent.shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := C("test.concurrent.shared").Load(); got != 8000 {
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
