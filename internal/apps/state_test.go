package apps

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// chatModel is the chat area as a plain sliding window of ChatLines.
type chatModel struct {
	lines []ChatLine
	max   int
}

func (m *chatModel) apply(sender, text string) {
	m.lines = append(m.lines, ChatLine{Sender: sender, Text: text})
	if drop := len(m.lines) - m.max; m.max > 0 && drop > 0 {
		m.lines = m.lines[drop:]
	}
}

// randomLine is empty one time in eight, long (up to 4 KB) one time in
// eight, and otherwise up to 120 arbitrary bytes.
func randomLine(r *rand.Rand) string {
	var b []byte
	switch r.Intn(8) {
	case 0:
	case 1:
		b = make([]byte, 1000+r.Intn(3000))
	default:
		b = make([]byte, 1+r.Intn(120))
	}
	r.Read(b)
	return string(b)
}

// TestChatAreaMatchesSlidingWindow: the arena shows what a window of
// ChatLines shows, line for line, at every bound and with reads taken
// between the reclaims of its cut prefix.
func TestChatAreaMatchesSlidingWindow(t *testing.T) {
	for _, max := range []int{0, 1, 3, 256} {
		r := rand.New(rand.NewSource(int64(max) + 1))
		c, m := NewChatArea(), chatModel{max: max}
		c.MaxLines = max
		reclaims := 0
		for i := 0; i < 4000; i++ {
			sender, text := fmt.Sprint("s", r.Intn(4)), randomLine(r)
			base := c.base
			if err := c.Apply(sender, EncodeSay(text)); err != nil {
				t.Fatal(err)
			}
			if c.base != base {
				reclaims++
			}
			m.apply(sender, text)
			if r.Intn(16) == 0 || i == 3999 {
				if got := c.Lines(); !slices.Equal(got, m.lines) || c.Len() != len(m.lines) {
					t.Fatalf("MaxLines %d, after line %d: %d lines (Len %d), want %d, or their text differs", max, i, len(got), c.Len(), len(m.lines))
				}
			}
		}
		if max > 0 && reclaims == 0 {
			t.Errorf("MaxLines %d: the arena never reclaimed its cut text", max)
		}
	}
}

// TestReadsUnchangedByLaterApplies: what Lines and Strokes returned is
// the caller's; applies after it, reclaims and redraws into a stroke's
// own points among them, leave it as it was.
func TestReadsUnchangedByLaterApplies(t *testing.T) {
	c := NewChatArea()
	c.MaxLines = 3
	for i := 0; i < 5; i++ {
		c.Apply("a", EncodeSay(fmt.Sprint("line ", i)))
	}
	lines := c.Lines()
	wantLines := slices.Clone(lines)
	for i := 0; i < 1000; i++ {
		c.Apply("b", EncodeSay(strings.Repeat("x", i%50)))
	}
	if !slices.Equal(lines, wantLines) {
		t.Errorf("lines read earlier changed to %v", lines)
	}

	w := NewWhiteboard()
	long := Stroke{ID: 1, Color: 1, Width: 1, Points: []Point{{1, 1}, {2, 2}, {3, 3}, {4, 4}}}
	w.Apply(EncodeStroke(long))
	w.Apply(EncodeStroke(Stroke{ID: 2, Points: []Point{{9, 9}}}))
	strokes := w.Strokes()
	var wantStrokes []Stroke
	for _, s := range strokes {
		s.Points = slices.Clone(s.Points)
		wantStrokes = append(wantStrokes, s)
	}
	short := Stroke{ID: 1, Color: 2, Width: 2, Points: []Point{{-7, 7}, {8, -8}}}
	w.Apply(EncodeStroke(short)) // fits in stroke 1's points
	if got := w.Strokes()[0]; got.Color != 2 || !slices.Equal(got.Points, short.Points) {
		t.Errorf("redrawn shorter: %+v, want %+v", got, short)
	}
	longer := Stroke{ID: 1, Points: append(slices.Clone(long.Points), Point{5, 5}, Point{6, 6})}
	w.Apply(EncodeStroke(longer)) // outgrows them
	if got := w.Strokes()[0]; !slices.Equal(got.Points, longer.Points) {
		t.Errorf("redrawn longer: %v, want %v", got.Points, longer.Points)
	}
	w.Apply(encodeErase(2))
	w.Apply(encodeClear())
	for i, s := range strokes {
		if want := wantStrokes[i]; s.ID != want.ID || s.Color != want.Color || !slices.Equal(s.Points, want.Points) {
			t.Errorf("stroke read earlier changed to %+v, want %+v", s, want)
		}
	}
}

// TestApplyWhileReading: a node's Serve goroutine applies to the areas
// while a UI or an oracle reads them.
func TestApplyWhileReading(t *testing.T) {
	c, w := NewChatArea(), NewWhiteboard()
	c.MaxLines = 8
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Apply("a", EncodeSay(strings.Repeat("y", i%40)))
			w.Apply(EncodeStroke(Stroke{ID: uint32(i % 5), Points: make([]Point, i%7)}))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if n := len(c.Lines()); n > 8 {
				t.Errorf("%d lines kept, MaxLines 8", n)
				return
			}
			if n := len(w.Strokes()); n > 5 {
				t.Errorf("%d strokes on a board of 5 IDs", n)
				return
			}
		}
	}()
	wg.Wait()
}
