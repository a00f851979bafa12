package metrics

import (
	"sort"
	"testing"
)

// TestKindRule: a name holds exactly one kind, and asking for it as
// another kind is a programming error that panics rather than handing
// back a second metric of the same name.
func TestKindRule(t *testing.T) {
	C("test.kind.counter")
	SetGauge("test.kind.gauge", 1)
	H("test.kind.histogram")
	for _, tc := range []struct {
		name string
		ask  func()
	}{
		{"counter as gauge", func() { SetGauge("test.kind.counter", 1) }},
		{"counter as histogram", func() { H("test.kind.counter") }},
		{"gauge as counter", func() { C("test.kind.gauge") }},
		{"gauge as histogram", func() { H("test.kind.gauge") }},
		{"histogram as counter", func() { C("test.kind.histogram") }},
		{"histogram as gauge", func() { SetGauge("test.kind.histogram", 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.ask()
		}()
	}
	// A rejected ask leaves the table as it was: the lock is released and
	// the name keeps its kind.
	var kind any
	Each(func(name string, m any) {
		if name == "test.kind.counter" {
			kind = m
		}
	})
	if _, ok := kind.(*Counter); !ok {
		t.Errorf("test.kind.counter is now %T", kind)
	}
}

// TestEachSortedAndLen: Each walks every kind in one name-ordered pass,
// Len counts what it walks, and asking for a registered name again does
// not move Len.
func TestEachSortedAndLen(t *testing.T) {
	C("test.each.b")
	SetGauge("test.each.a", 2)
	H("test.each.c")
	n := Len()
	C("test.each.b")
	SetGauge("test.each.a", 3)
	H("test.each.c")
	if got := Len(); got != n {
		t.Errorf("Len moved %d → %d on names already registered", n, got)
	}
	var names, kinds []string
	Each(func(name string, m any) {
		names = append(names, name)
		switch m.(type) {
		case *Counter:
			kinds = append(kinds, "counter")
		case *Gauge:
			kinds = append(kinds, "gauge")
		case *Histogram:
			kinds = append(kinds, "histogram")
		default:
			t.Errorf("%s holds a %T", name, m)
		}
	})
	if !sort.StringsAreSorted(names) {
		t.Error("Each is not in name order")
	}
	if len(names) != Len() {
		t.Errorf("Each visited %d metrics, Len = %d", len(names), Len())
	}
	i := sort.SearchStrings(names, "test.each.a")
	if got := kinds[i : i+3]; got[0] != "gauge" || got[1] != "counter" || got[2] != "histogram" {
		t.Errorf("test.each.{a,b,c} kinds = %v", got)
	}
}
