//go:build !race

package apps

import (
	"fmt"
	"runtime"
	"testing"
	"time"
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
	now := time.Unix(0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range metas {
		v.AnnounceAt(m, now)
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
