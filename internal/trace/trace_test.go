package trace

import (
	"testing"
)

func TestMobilityPath(t *testing.T) {
	p, err := NewMobilityPath([]int{0, 4, 8}, []float64{100, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(-1) != 100 || p.At(0) != 100 {
		t.Error("before start")
	}
	if p.At(4) != 50 {
		t.Error("waypoint")
	}
	if got := p.At(2); got != 75 {
		t.Errorf("interpolation = %g", got)
	}
	if p.At(8) != 100 || p.At(100) != 100 {
		t.Error("after end")
	}

	// Validation.
	if _, err := NewMobilityPath(nil, nil); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := NewMobilityPath([]int{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewMobilityPath([]int{5, 5}, []float64{1, 2}); err == nil {
		t.Error("non-increasing steps accepted")
	}
	if _, err := NewMobilityPath([]int{0}, []float64{-1}); err == nil {
		t.Error("negative distance accepted")
	}

	a := Fig8PathA()
	if a.At(0) != 100 || a.At(3) != 50 || a.At(5) != 100 {
		t.Errorf("Fig8 path: %g %g %g", a.At(0), a.At(3), a.At(5))
	}
}

func TestGeneratorDeterministicMix(t *testing.T) {
	senders := []string{"a", "b", "c"}
	g1 := NewGenerator(7, senders, DefaultMix())
	g2 := NewGenerator(7, senders, DefaultMix())
	counts := map[EventKind]int{}
	for i := 0; i < 300; i++ {
		e1, e2 := g1.Next(), g2.Next()
		if e1.Kind != e2.Kind || e1.Sender != e2.Sender || e1.Text != e2.Text {
			t.Fatal("generator not deterministic")
		}
		counts[e1.Kind]++
		switch e1.Kind {
		case EventChat:
			if e1.Text == "" {
				t.Error("empty chat text")
			}
		case EventImageShare:
			if e1.Image == nil || e1.Description == "" {
				t.Error("image share without content")
			}
		}
	}
	// The mix is 6:3:1, so chat must dominate and every kind appears.
	if counts[EventChat] <= counts[EventStroke] || counts[EventStroke] <= counts[EventImageShare] {
		t.Errorf("mix skew: %v", counts)
	}
	if counts[EventImageShare] == 0 {
		t.Error("no image shares in 300 events")
	}

	// Degenerate mix falls back to the default.
	g := NewGenerator(1, senders, Mix{})
	for i := 0; i < 10; i++ {
		g.Next()
	}
}
