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
