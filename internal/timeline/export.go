package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"adaptiveqos/internal/metrics"
)

// Meta is the header line of a JSONL export: one self-describing
// record before the per-window records, so downstream plotting never
// guesses the window size or schema version.
type Meta struct {
	Schema    string `json:"schema"`
	Label     string `json:"label,omitempty"`
	WindowMS  int64  `json:"window_ms"`
	Retention int    `json:"retention"`
	Series    int    `json:"series"`
	Windows   int    `json:"windows"`
}

// SchemaV1 is the JSONL export schema identifier.
const SchemaV1 = "aqos-timeline/v1"

// lineRec is one JSONL body line: a series' window, series-major.
type lineRec struct {
	Series string `json:"series"`
	Kind   string `json:"kind"`
	Point
}

// WriteSeriesJSONL writes a meta line followed by one compact JSON
// line per (series, window), series-major in name order.  Output bytes
// are a pure function of the input, so same-seed virtual-time runs
// export byte-identical files.
func WriteSeriesJSONL(w io.Writer, meta Meta, series []SeriesData) error {
	if meta.Schema == "" {
		meta.Schema = SchemaV1
	}
	meta.Series = len(series)
	meta.Windows = 0
	for _, sd := range series {
		if len(sd.Points) > meta.Windows {
			meta.Windows = len(sd.Points)
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, sd := range series {
		for _, p := range sd.Points {
			if err := enc.Encode(lineRec{Series: sd.Name, Kind: sd.Kind, Point: p}); err != nil {
				return err
			}
		}
	}
	return nil
}

// exportMeta builds the Meta header for this timeline.
func (t *Timeline) exportMeta(label string) Meta {
	return Meta{Schema: SchemaV1, Label: label, WindowMS: t.cfg.Window.Milliseconds(), Retention: t.cfg.Retention}
}

// WriteJSONL exports the query's selection as JSONL.
func (t *Timeline) WriteJSONL(w io.Writer, q Query) error {
	return WriteSeriesJSONL(w, t.exportMeta(""), t.Query(q))
}

// WriteCSV exports the query's selection wide: one row per window
// (x = milliseconds since the first exported window's start), one
// column per counter/gauge/derived series, and count/p50/p90/p99
// columns per histogram series.
func (t *Timeline) WriteCSV(w io.Writer, q Query) error {
	return writeSeriesCSV(w, t.Query(q))
}

// WriteFile exports the whole timeline to path: wide CSV when the path
// ends in ".csv", JSONL otherwise.  The bytes are a pure function of
// what was sampled, so two same-seed runs' exports compare byte for
// byte.
func (t *Timeline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = t.WriteCSV(f, Query{})
	} else {
		err = t.WriteJSONL(f, Query{})
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeSeriesCSV(w io.Writer, series []SeriesData) error {
	var baseNS int64
	for _, sd := range series {
		if len(sd.Points) > 0 && (baseNS == 0 || sd.Points[0].StartNS < baseNS) {
			baseNS = sd.Points[0].StartNS
		}
	}
	tab := metrics.NewTable("window_ms")
	for _, sd := range series {
		for _, p := range sd.Points {
			x := float64(p.StartNS-baseNS) / 1e6
			if sd.Kind == KindHistogram.String() {
				tab.Add(sd.Name+".count", x, float64(p.Count))
				tab.Add(sd.Name+".p50", x, p.P50)
				tab.Add(sd.Name+".p90", x, p.P90)
				tab.Add(sd.Name+".p99", x, p.P99)
			} else {
				tab.Add(sd.Name, x, p.Value)
			}
		}
	}
	return tab.RenderCSV(w)
}

// sparkRunes is the eight-level bar used by WriteText sparklines.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vs scaled into sparkRunes ("·" for a flat/empty
// series keeps column widths stable).
func sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range vs {
		if hi <= lo {
			sb.WriteRune('·')
			continue
		}
		i := int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(sparkRunes) {
			i = len(sparkRunes) - 1
		}
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

// WriteText renders the query's selection for humans: one sparkline
// row per series (histograms plot the windowed p99) with last/min/max,
// then a table of the most recent windows.
func (t *Timeline) WriteText(w io.Writer, q Query) error {
	series := t.Query(q)
	fmt.Fprintf(w, "timeline: window=%s retention=%d series=%d windows=%d\n\n",
		t.Window(), t.Retention(), len(series), t.WindowCount())

	nameW := len("series")
	for _, sd := range series {
		if len(sd.Name) > nameW {
			nameW = len(sd.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %-9s  %12s  %12s  %12s  curve\n", nameW, "series", "kind", "last", "min", "max")
	for _, sd := range series {
		vs := make([]float64, len(sd.Points))
		for i, p := range sd.Points {
			if sd.Kind == KindHistogram.String() {
				vs[i] = p.P99
			} else {
				vs[i] = p.Value
			}
		}
		var last, lo, hi float64
		if len(vs) > 0 {
			last = vs[len(vs)-1]
			lo, hi = math.Inf(1), math.Inf(-1)
			for _, v := range vs {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		// Sparklines cap at the trailing 60 windows so rows stay terminal-width.
		tail := vs
		if len(tail) > 60 {
			tail = tail[len(tail)-60:]
		}
		fmt.Fprintf(w, "%-*s  %-9s  %12.3f  %12.3f  %12.3f  %s\n", nameW, sd.Name, sd.Kind, last, lo, hi, sparkline(tail))
	}
	return nil
}
