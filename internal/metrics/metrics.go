// Package metrics is the process's one metric registry — counters,
// gauges and log-bucketed histograms in a single name table
// (registry.go) that /metrics, /debug/qos and the timeline read — plus
// the experiment tables (named series and fixed-width rendering) the
// paper's figures are printed from.  It imports nothing from this
// module.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Series is one named curve: ordered (x, y) samples.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// xIndex builds a map from x value to the index of its first sample.
// Renderers build this once per series per render so each cell lookup
// is O(1) instead of a linear scan over the series.
func (s *Series) xIndex() map[float64]int {
	idx := make(map[float64]int, len(s.X))
	for i, x := range s.X {
		if _, ok := idx[x]; !ok {
			idx[x] = i
		}
	}
	return idx
}

// Table collects series sharing an x axis and renders them as an
// aligned text table, one row per x value.
type Table struct {
	mu     sync.Mutex
	XLabel string
	series []*Series
	byName map[string]*Series
}

// NewTable creates a table with the given x-axis label.
func NewTable(xLabel string) *Table {
	return &Table{XLabel: xLabel, byName: make(map[string]*Series)}
}

// Series returns (creating on demand) the named series.
func (t *Table) Series(name string) *Series {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byName[name]; ok {
		return s
	}
	s := &Series{Name: name}
	t.series = append(t.series, s)
	t.byName[name] = s
	return s
}

// Add appends y under the named series at x.
func (t *Table) Add(name string, x, y float64) {
	t.Series(name).Add(x, y)
}

// axisLocked returns the distinct x values in ascending order plus one
// x→sample-index map per series, built once so rendering an n-row,
// k-series table costs O(n·k) cell lookups rather than O(n·k·n) scans.
func (t *Table) axisLocked() (xs []float64, indexes []map[float64]int) {
	xsSet := make(map[float64]bool)
	indexes = make([]map[float64]int, len(t.series))
	for i, s := range t.series {
		indexes[i] = s.xIndex()
		for x := range indexes[i] {
			xsSet[x] = true
		}
	}
	xs = make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs, indexes
}

// Render writes the table: a header row, then one row per distinct x
// in ascending order with each series' value (blank when missing).
func (t *Table) Render(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	xs, indexes := t.axisLocked()

	cols := make([]string, 0, len(t.series)+1)
	cols = append(cols, t.XLabel)
	for _, s := range t.series {
		cols = append(cols, s.Name)
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
		if widths[i] < 10 {
			widths[i] = 10
		}
	}

	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], c)
		}
		sb.WriteByte('\n')
		_, err := io.WriteString(w, sb.String())
		return err
	}

	if err := writeRow(cols); err != nil {
		return err
	}
	for _, x := range xs {
		cells := make([]string, 0, len(cols))
		cells = append(cells, formatNum(x))
		for i, s := range t.series {
			if j, ok := indexes[i][x]; ok {
				cells = append(cells, formatNum(s.Y[j]))
			} else {
				cells = append(cells, "")
			}
		}
		if err := writeRow(cells); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as comma-separated values with a header
// row, suitable for plotting tools.
func (t *Table) RenderCSV(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	xs, indexes := t.axisLocked()

	var sb strings.Builder
	sb.WriteString(csvEscape(t.XLabel))
	for _, s := range t.series {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(s.Name))
	}
	sb.WriteByte('\n')
	for _, x := range xs {
		sb.WriteString(formatNum(x))
		for i, s := range t.series {
			sb.WriteByte(',')
			if j, ok := indexes[i][x]; ok {
				sb.WriteString(formatNum(s.Y[j]))
			}
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return "metrics: render error: " + err.Error()
	}
	return sb.String()
}

func formatNum(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
