//go:build !race

package message

import (
	"fmt"
	"testing"

	"adaptiveqos/internal/selector"
)

// Allocation pins for the frame codec (DESIGN.md §7): the counts the
// end-to-end allocs_per_delivery budgets are made of, held in go test.
// Excluded under -race: the detector's instrumentation allocates.

func TestParseZeroAllocs(t *testing.T) {
	for i, m := range wireSamples() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(frame); err != nil { // first sighting compiles the selector
			t.Fatal(err)
		}
		var v View
		if n := testing.AllocsPerRun(200, func() { v, _ = Parse(frame) }); n != 0 {
			t.Errorf("sample %d: Parse allocates %g times with its selector cached, want 0", i, n)
		}
		flat := selector.Attributes{"sub-t3": selector.B(true)}
		if n := testing.AllocsPerRun(200, func() { v.Matches(flat) }); n != 0 {
			t.Errorf("sample %d: matching a view allocates %g times, want 0", i, n)
		}
	}
}

// A materialised chat line is the message and its attribute map (two
// allocations); the body is the frame's and every string in it is
// interned.  Without an interner the eight strings come back.
func TestMessageAllocs(t *testing.T) {
	frame, err := Encode(wireSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	v, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	in := new(Interner)
	v.Message(in)
	if n := testing.AllocsPerRun(200, func() { v.Message(in) }); n > 3 {
		t.Errorf("Message through a warm interner allocates %g times, want <= 3", n)
	}
	if n := testing.AllocsPerRun(200, func() { Decode(frame) }); n > 11 {
		t.Errorf("Decode allocates %g times, want <= 11", n)
	}
}

// AppendEncode orders up to 16 attribute names in a stack array.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	m := wireSamples()[0]
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() { AppendEncode(buf, m) }); n != 0 {
		t.Errorf("AppendEncode into a buffer with room allocates %g times, want 0", n)
	}
	for i := 0; len(m.Attrs) < 16; i++ {
		m.Attrs[fmt.Sprintf("extra-%02d", i)] = selector.N(float64(i))
	}
	if n := testing.AllocsPerRun(200, func() { AppendEncode(buf, m) }); n != 0 {
		t.Errorf("AppendEncode of 16 attributes allocates %g times, want 0", n)
	}
}
