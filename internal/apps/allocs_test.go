//go:build !race

package apps

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"testing"
)

// TestAnnounceClaimedCountBounded: a share's collection state follows
// the chunks that arrived, not the packet count its announce claims.
// An announce of 65 535 packets costs under 4 KB, and 64 of them under
// 1 MB together — the bound the reassembler keeps for fragment counts.
func TestAnnounceClaimedCountBounded(t *testing.T) {
	const shares = 64
	metas := make([]ImageMeta, shares)
	for i := range metas {
		metas[i] = ImageMeta{Object: fmt.Sprintf("claim-%02d", i), Width: 8, Height: 8, TotalPackets: 1<<16 - 1}
	}
	v := NewImageViewer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range metas {
		v.Announce(m)
	}
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	if b >= 1<<20 {
		t.Errorf("%d announces claiming %d packets hold %d B, want < 1 MB", shares, metas[0].TotalPackets, b)
	}
	if per := b / shares; per >= 4<<10 {
		t.Errorf("an announce claiming %d packets allocates %d B, want < 4 KB", metas[0].TotalPackets, per)
	}
}

var encoded []byte

// TestEncodersAllocateOnce: a chat line and a stroke are encoded into
// one buffer of exactly their length — no growth while appending, and
// no spare capacity a later append could write into.
func TestEncodersAllocateOnce(t *testing.T) {
	stroke := Stroke{ID: 7, Color: 2, Width: 3, Points: []Point{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}, {13, 14}}}
	for _, tc := range []struct {
		name   string
		encode func() []byte
	}{
		{"EncodeSay", func() []byte { return EncodeSay("a line of chat, longer than a few bytes") }},
		{"EncodeStroke", func() []byte { return EncodeStroke(stroke) }},
	} {
		if n := testing.AllocsPerRun(100, func() { encoded = tc.encode() }); n != 1 {
			t.Errorf("%s: %g allocations, want 1", tc.name, n)
		}
		if out := tc.encode(); cap(out) != len(out) {
			t.Errorf("%s: cap %d, len %d: want no spare capacity", tc.name, cap(out), len(out))
		}
	}
}

// TestDecodeImageMetaAllocs: decoding an announce allocates its two
// strings whether or not it carries a sketch — the object name, and one
// string holding the description and the sketch after it.
func TestDecodeImageMetaAllocs(t *testing.T) {
	m := ImageMeta{Object: "img-7", Width: 256, Height: 256, TotalPackets: 16, StreamBytes: 30000,
		Description: "gray scene 3", Sketch: strings.Repeat("s", 170)}
	for _, sketch := range []string{"", m.Sketch} {
		m.Sketch = sketch
		payload := EncodeImageMeta(m)
		var got ImageMeta
		if n := testing.AllocsPerRun(100, func() { got, _ = DecodeImageMeta(payload) }); n != 2 || got != m {
			t.Errorf("sketch of %d B: %g allocations (decoded %+v), want 2", len(sketch), n, got)
		}
	}
}

// TestStatsMissAllocatesNothing: asking a viewer about a share it does
// not hold costs no allocation; the error is ErrUnknownImage as is.
func TestStatsMissAllocatesNothing(t *testing.T) {
	v := NewImageViewer()
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = v.Stats("ghost") }); n != 0 {
		t.Errorf("a Stats miss: %g allocations, want 0", n)
	}
	if err != ErrUnknownImage {
		t.Errorf("a Stats miss returned %v, want ErrUnknownImage", err)
	}
}

// mallocs counts the heap allocations of runs calls of f at one P.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWarmChatApplyAllocatesNothing: once its arena and line records
// have grown to the window's size, a bounded chat area applies a line
// by reclaiming its cut prefix, never by allocating.
func TestWarmChatApplyAllocatesNothing(t *testing.T) {
	payloads := make([][]byte, 97)
	for i := range payloads {
		payloads[i] = EncodeSay(strings.Repeat("w", i*37%161))
	}
	c := NewChatArea()
	c.MaxLines = 256
	next := 0
	apply := func() {
		c.Apply("pub", payloads[next%len(payloads)])
		next++
	}
	for i := 0; i < 16*256; i++ {
		apply()
	}
	if n := mallocs(10000, apply); n != 0 {
		t.Errorf("10000 warm applies allocated %d times, want 0", n)
	}
}

// TestUnboundedChatAllocatesLogarithmically: unlimited history grows
// the arena and the records by append, O(log n) allocations for n
// lines rather than one a line.
func TestUnboundedChatAllocatesLogarithmically(t *testing.T) {
	const lines = 10000
	payload := EncodeSay("a line of chat about as long as the benchmark's, eighty bytes or so, give or take")
	c := NewChatArea()
	n := mallocs(lines, func() { c.Apply("pub", payload) })
	if limit := uint64(8 * bits.Len(lines)); n > limit {
		t.Errorf("%d lines allocated %d times, want at most %d", lines, n, limit)
	}
	if c.Len() != lines {
		t.Errorf("kept %d lines, want %d", c.Len(), lines)
	}
}

// TestStrokeRedrawAllocatesNothing: a stroke redrawn under its ID with
// no more points than it has decodes into its own points.
func TestStrokeRedrawAllocatesNothing(t *testing.T) {
	w := NewWhiteboard()
	pts := make([]Point, 16)
	for i := range pts {
		pts[i] = Point{int16(i), int16(-i)}
	}
	w.Apply(EncodeStroke(Stroke{ID: 7, Points: pts}))
	redraws := [][]byte{EncodeStroke(Stroke{ID: 7, Color: 1, Points: pts[:9]}), EncodeStroke(Stroke{ID: 7, Color: 2, Points: pts})}
	next := 0
	if n := mallocs(1000, func() { w.Apply(redraws[next%2]); next++ }); n != 0 {
		t.Errorf("1000 redraws allocated %d times, want 0", n)
	}
}
