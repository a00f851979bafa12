package clock

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestWallBasics(t *testing.T) {
	before := time.Now()
	now := Wall.Now()
	if now.Before(before) {
		t.Fatalf("Wall.Now went backwards: %v < %v", now, before)
	}
	if d := Wall.Since(before); d < 0 {
		t.Fatalf("Wall.Since negative: %v", d)
	}
	tm := Wall.NewTimer(time.Millisecond)
	select {
	case <-tm.C:
	case <-time.After(5 * time.Second):
		t.Fatal("wall timer never fired")
	}
	tk := Wall.NewTicker(time.Millisecond)
	select {
	case <-tk.C:
	case <-time.After(5 * time.Second):
		t.Fatal("wall ticker never fired")
	}
	tk.Stop()
}

func TestVirtualEpochAndNow(t *testing.T) {
	v := NewVirtual(time.Time{})
	if !v.Now().Equal(DefaultEpoch) {
		t.Fatalf("zero start should read DefaultEpoch, got %v", v.Now())
	}
	start := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	v = NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", v.Now(), start)
	}
	v.Advance(3 * time.Second)
	if got := v.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("Now - start = %v, want 3s", got)
	}
}

// Events at the same instant must fire in schedule order, and an event
// may schedule further events inside the same Advance window.
func TestVirtualDeterministicOrdering(t *testing.T) {
	v := NewVirtual(time.Time{})
	var order []int
	v.ScheduleFunc(10*time.Millisecond, func(time.Time) { order = append(order, 1) })
	v.ScheduleFunc(10*time.Millisecond, func(time.Time) { order = append(order, 2) })
	v.ScheduleFunc(5*time.Millisecond, func(now time.Time) {
		order = append(order, 0)
		// Nested event still inside the window: fires between 0 and 1/2? No —
		// scheduled at now+2ms = 7ms < 10ms, so it fires before the 10ms pair.
		v.ScheduleFunc(2*time.Millisecond, func(time.Time) { order = append(order, 99) })
	})
	fired := v.Advance(20 * time.Millisecond)
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
	want := []int{0, 99, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := v.Now().Sub(DefaultEpoch); got != 20*time.Millisecond {
		t.Fatalf("clock should land on the advance target, got +%v", got)
	}
}

func TestVirtualEventSeesItsInstant(t *testing.T) {
	v := NewVirtual(time.Time{})
	var at time.Time
	v.ScheduleFunc(7*time.Millisecond, func(now time.Time) { at = now })
	v.Advance(time.Hour)
	if want := DefaultEpoch.Add(7 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("event saw %v, want %v", at, want)
	}
}

func TestVirtualStep(t *testing.T) {
	v := NewVirtual(time.Time{})
	v.ScheduleFunc(time.Second, func(time.Time) {})
	v.ScheduleFunc(2*time.Second, func(time.Time) {})
	if n := v.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if !v.Step() || !v.Step() {
		t.Fatal("Step should fire both pending events")
	}
	if v.Step() {
		t.Fatal("Step on empty heap should report false")
	}
}

// Concurrent scheduling against a driving goroutine must be race-clean
// (run under -race in CI).
func TestVirtualConcurrentScheduleRace(t *testing.T) {
	v := NewVirtual(time.Time{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v.ScheduleFunc(time.Duration(i%7)*time.Millisecond, func(time.Time) {})
				v.Now()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		v.Advance(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	v.Advance(time.Second)
}

type batchLog struct {
	log *[]string
	tag string
}

func (b batchLog) FireItem(i int, now time.Time) {
	*b.log = append(*b.log, fmt.Sprintf("%s%d@%v", b.tag, i, now.Sub(DefaultEpoch)))
}

// TestVirtualBatchOrder: a batch's items fire as separate ScheduleFunc calls
// in index order would — by instant, ties in index order, and before an
// event scheduled after the batch at the same instant — and every
// counter (Len, Step, RunUntilIdle, AdvanceTo) sees each item as one
// event.
func TestVirtualBatchOrder(t *testing.T) {
	const ms = time.Millisecond
	v := NewVirtual(time.Time{})
	var log []string
	note := func(what string) func(time.Time) {
		return func(now time.Time) { log = append(log, fmt.Sprintf("%s@%v", what, now.Sub(DefaultEpoch))) }
	}
	v.ScheduleFunc(2*ms, note("before"))
	delays := []time.Duration{3 * ms, 2 * ms, -ms, 2 * ms}
	v.ScheduleBatch(delays, batchLog{&log, "a"})
	delays[0] = time.Hour // the clock copied the delays
	v.ScheduleFunc(2*ms, note("after"))
	v.ScheduleBatch([]time.Duration{ms, 3 * ms}, batchLog{&log, "b"})
	v.ScheduleBatch(nil, batchLog{&log, "empty"})
	if n := v.Len(); n != 8 {
		t.Fatalf("Len = %d, want 8: each batch item counts", n)
	}
	if !v.Step() || v.Len() != 7 {
		t.Fatalf("Step fired %v, Len now %d, want 7", log, v.Len())
	}
	if n := v.RunUntilIdle(2); n != 2 || v.Len() != 5 {
		t.Fatalf("RunUntilIdle(2) = %d, Len %d; want 2, 5", n, v.Len())
	}
	if n := v.AdvanceTo(DefaultEpoch.Add(10 * ms)); n != 5 || v.Len() != 0 {
		t.Fatalf("AdvanceTo = %d, Len %d; want 5, 0", n, v.Len())
	}
	want := []string{"a2@0s", "b0@1ms", "before@2ms", "a1@2ms", "a3@2ms", "after@2ms", "a0@3ms", "b1@3ms"}
	if !slices.Equal(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}
