package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 8)
	s.Add(3, 8)
	if len(s.X) != 3 || len(s.Y) != 3 || s.X[1] != 2 || s.Y[1] != 8 {
		t.Errorf("samples: %v %v", s.X, s.Y)
	}
	if idx := s.xIndex(); idx[3] != 2 || len(idx) != 3 {
		t.Errorf("xIndex: %v", idx)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("page-faults")
	tb.Add("packets", 30, 16)
	tb.Add("packets", 100, 1)
	tb.Add("bpp", 30, 2.1)
	tb.Add("bpp", 100, 0.125)
	tb.Add("cr", 30, math.Inf(1))

	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows: %q", out)
	}
	if !strings.Contains(lines[0], "page-faults") || !strings.Contains(lines[0], "packets") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "30") || !strings.Contains(lines[1], "16") ||
		!strings.Contains(lines[1], "2.100") || !strings.Contains(lines[1], "inf") {
		t.Errorf("row 30: %q", lines[1])
	}
	if !strings.Contains(lines[2], "100") || !strings.Contains(lines[2], "0.125") {
		t.Errorf("row 100: %q", lines[2])
	}

	if len(tb.series) != 3 || tb.series[0].Name != "packets" || tb.series[2].Name != "cr" {
		t.Errorf("series order: %v", tb.series)
	}
	// Series identity: same name returns same series.
	tb.Series("packets").Add(50, 8)
	if len(tb.Series("packets").X) != 3 {
		t.Error("Series should return the same instance")
	}
}

// The first sample at an x wins when rendering (renderers use a
// per-series x→index map).
func TestRenderMatchesYAt(t *testing.T) {
	tb := NewTable("x")
	s := tb.Series("dup")
	s.Add(1, 5)
	s.Add(1, 99) // duplicate x: first occurrence must render
	s.Add(2, 7)
	tb.Add("sparse", 3, 4) // only present at x=3

	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := []string{"x,dup,sparse", "1,5,", "2,7,", "3,,4"}
	if len(lines) != len(want) {
		t.Fatalf("csv: %q", sb.String())
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}

	text := tb.String()
	if !strings.Contains(text, "5") || strings.Contains(text, "99") {
		t.Errorf("text render should show first duplicate only: %q", text)
	}
}

// Large-table render should scale linearly in rows; this is a sanity
// bound, not a benchmark — quadratic per-cell scans blew well past it.
func TestRenderLargeTable(t *testing.T) {
	tb := NewTable("x")
	const rows = 2000
	for _, name := range []string{"a", "b", "c"} {
		s := tb.Series(name)
		for i := 0; i < rows; i++ {
			s.Add(float64(i), float64(i)*2)
		}
	}
	out := tb.String()
	if got := strings.Count(out, "\n"); got != rows+1 {
		t.Fatalf("rendered %d lines, want %d", got, rows+1)
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("x,axis") // comma forces escaping
	tb.Add("a", 1, 10)
	tb.Add(`b"q`, 1, 0.5)
	tb.Add("a", 2, 20)

	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv: %q", sb.String())
	}
	if lines[0] != `"x,axis",a,"b""q"` {
		t.Errorf("header: %q", lines[0])
	}
	if lines[1] != "1,10,0.500" {
		t.Errorf("row 1: %q", lines[1])
	}
	if lines[2] != "2,20," { // missing cell stays empty
		t.Errorf("row 2: %q", lines[2])
	}
}
