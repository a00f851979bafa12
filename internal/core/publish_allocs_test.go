//go:build !race

package core

import (
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/wavelet"
)

// TestPublishAllocs pins what a publish costs its sender, the budget
// behind chat-wired's allocs_per_delivery: a chat line or stroke is
// encoded, described and stamped in scratch the client lends it for the
// call (its attributes the name-sorted slice a receiver holds, so the
// encoder sorts nothing), and all it allocates is its datagram.  An
// image share's data packets rewrite that scratch too: a packet costs
// its datagram and nothing else, however many of them the share sends.
// Tracing is off; the client is a handler on a virtual-time net, alone,
// so nothing counted is a receiver's.  Excluded under -race: the
// detector's instrumentation allocates.
func TestPublishAllocs(t *testing.T) {
	n := newVNet(t, 1)
	c := n.client("pub", Config{})
	given := func() int { return int(n.Stats("pub").Sent) }

	stroke := apps.Stroke{ID: 7, Color: 2, Width: 3, Points: []apps.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}}
	for name, publish := range map[string]func() error{
		"Say":  func() error { return c.Say("a line of chat", "") },
		"Draw": func() error { return c.Draw(stroke, "") }, // a redraw: the whiteboard keeps its points
	} {
		if err := publish(); err != nil { // warm: the pool, the selector cache, the chat arena
			t.Fatal(err)
		}
		before := given()
		allocs := testing.AllocsPerRun(200, func() {
			if err := publish(); err != nil {
				t.Fatal(err)
			}
		})
		if d := given() - before; d != 201 {
			t.Fatalf("%s: %d datagrams for 201 publishes", name, d)
		}
		t.Logf("%s: %g allocations", name, allocs)
		if allocs != 1 {
			t.Errorf("%s allocates %g times, want 1 (its datagram)", name, allocs)
		}
	}

	// A share's cost beyond its datagrams does not grow with the data
	// packets it sends, here cut to 15 and to 11 of them by the loss a
	// receiver reported.  Sent whole it is a dozen allocations: the
	// split, the announce and its attributes, the local viewer's copy.
	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 3), "scan")
	if err != nil {
		t.Fatal(err)
	}
	share := func(loss float64) (beyond float64, datagrams int) {
		t.Helper()
		c.reports.record("peer", loss)
		if err := c.ShareImage("scan", obj, ""); err != nil { // warm
			t.Fatal(err)
		}
		const runs = 20
		before := given()
		allocs := testing.AllocsPerRun(runs, func() {
			if err := c.ShareImage("scan", obj, ""); err != nil {
				t.Fatal(err)
			}
		})
		datagrams = (given() - before) / (runs + 1)
		return allocs - float64(datagrams), datagrams
	}
	whole, sentWhole := share(0)
	most, sentMost := share(0.05)
	fewer, sentFewer := share(0.3)
	t.Logf("a share allocates %g beyond its %d datagrams sent whole, %g beyond %d and %g beyond %d cut short",
		whole, sentWhole, most, sentMost, fewer, sentFewer)
	if sentWhole != apps.SharePackets+1 || sentMost != 16 || sentFewer != 12 {
		t.Fatalf("%d, %d and %d datagrams per share, want %d, 16 and 12: the cuts did not take", sentWhole, sentMost, sentFewer, apps.SharePackets+1)
	}
	if most != fewer {
		t.Errorf("a share allocates %g beyond its datagrams cut to 15 packets and %g cut to 11: data packets allocate", most, fewer)
	}
	if whole > 12 {
		t.Errorf("a share sent whole allocates %g beyond its datagrams, want <= 12", whole)
	}
}
