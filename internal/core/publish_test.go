package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"adaptiveqos/internal/apps"
)

// TestConcurrentPublishers: four goroutines publish chat lines and
// strokes on one client at once.  Each publish builds its frame in
// scratch the client lends it for the call, so none is shared mid-send:
// every receiver, and the publisher's own applications, hold every line
// and stroke exactly once, each with its own text and points.  ci.sh
// runs this under -race -cpu 4.
func TestConcurrentPublishers(t *testing.T) {
	const publishers, each = 4, 50
	n := newVNet(t, 1)
	pub := n.client("pub", Config{})
	recvs := []*Client{n.client("r1", Config{}), n.client("r2", Config{})}

	text := func(g, i int) string { return fmt.Sprintf("publisher %d says line %d", g, i) }
	stroke := func(g, i int) apps.Stroke {
		id := uint32(g*each + i)
		pts := make([]apps.Point, 1+int(id)%7)
		for k := range pts {
			pts[k] = apps.Point{X: int16(id), Y: int16(k)}
		}
		return apps.Stroke{ID: id, Color: uint8(g), Width: uint8(i), Points: pts}
	}
	var wg sync.WaitGroup
	for g := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if err := pub.Say(text(g, i), ""); err != nil {
					t.Error(err)
				}
				if err := pub.Draw(stroke(g, i), ""); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	n.settle()

	var wantLines []string
	for g := range publishers {
		for i := range each {
			wantLines = append(wantLines, text(g, i))
		}
	}
	slices.Sort(wantLines)
	for _, c := range append([]*Client{pub}, recvs...) {
		var lines []string
		for _, l := range c.Chat().Lines() {
			if l.Sender != "pub" {
				t.Errorf("%s: a line from %q", c.ID(), l.Sender)
			}
			lines = append(lines, l.Text)
		}
		slices.Sort(lines)
		if !slices.Equal(lines, wantLines) {
			t.Errorf("%s holds %d lines, not the %d published once each", c.ID(), len(lines), len(wantLines))
		}
		strokes := c.Whiteboard().Strokes()
		if len(strokes) != publishers*each {
			t.Errorf("%s holds %d strokes, want %d", c.ID(), len(strokes), publishers*each)
		}
		for _, s := range strokes {
			want := stroke(int(s.ID)/each, int(s.ID)%each)
			if s.Color != want.Color || s.Width != want.Width || !slices.Equal(s.Points, want.Points) {
				t.Errorf("%s: stroke %d is %+v, want %+v", c.ID(), s.ID, s, want)
			}
		}
	}
}
