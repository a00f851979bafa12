package timeline

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

// buildExportFixture runs a deterministic mini-workload and exports it
// as JSONL — called twice by the determinism test.
func buildExportFixture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exportFixture().WriteJSONL(&buf, Query{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// exportFixture is the timeline of a deterministic mini-workload: three
// series over ten windows.
func exportFixture() *Timeline {
	clk := clock.NewVirtual(clock.DefaultEpoch)
	tl := New(Config{Window: 250 * time.Millisecond, Retention: 32, Clock: clk})
	var sent metrics.Counter
	var depth metrics.Gauge
	var lat metrics.Histogram
	tl.TrackCounter("sent", &sent)
	tl.TrackGauge("depth", &depth)
	tl.TrackHistogram("lat", &lat)
	for i := 0; i < 10; i++ {
		sent.Add(uint64(3 * i))
		depth.Set(float64(i % 4))
		lat.Observe(int64(1000 * (i + 1)))
		advance(tl, clk, 250*time.Millisecond)
	}
	return tl
}

// TestWriteFileByExtension: a path ending in ".csv" gets the CSV export,
// any other the JSONL one, byte for byte, and a path that cannot be
// created is an error.
func TestWriteFileByExtension(t *testing.T) {
	tl := exportFixture()
	var csv, jsonl bytes.Buffer
	if err := tl.WriteCSV(&csv, Query{}); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteJSONL(&jsonl, Query{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, want := range map[string][]byte{"tl.csv": csv.Bytes(), "tl.jsonl": jsonl.Bytes(), "tl": jsonl.Bytes()} {
		path := filepath.Join(dir, name)
		if err := tl.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %d bytes (%v), want the %d of its export", name, len(got), err, len(want))
		}
	}
	if err := tl.WriteFile(filepath.Join(dir, "missing", "tl.csv")); err == nil {
		t.Error("an export into a missing directory succeeded")
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	a := buildExportFixture(t)
	b := buildExportFixture(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same workload exported different bytes:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestWriteJSONLShape(t *testing.T) {
	out := buildExportFixture(t)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	// Meta line + 3 series × 10 windows.
	if len(lines) != 1+3*10 {
		t.Fatalf("lines = %d, want %d", len(lines), 1+3*10)
	}
	var meta Meta
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	if meta.Schema != SchemaV1 || meta.WindowMS != 250 || meta.Series != 3 || meta.Windows != 10 {
		t.Errorf("meta = %+v", meta)
	}
	var rec struct {
		Series string `json:"series"`
		Kind   string `json:"kind"`
		Point
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("body line: %v", err)
	}
	// Series-major in name order: depth first.
	if rec.Series != "depth" || rec.Kind != "gauge" {
		t.Errorf("first body line = %+v, want depth/gauge", rec)
	}
}

func TestWriteCSVShape(t *testing.T) {
	clk := clock.NewVirtual(clock.DefaultEpoch)
	tl := New(Config{Window: time.Second, Retention: 8, Clock: clk})
	var sent metrics.Counter
	var lat metrics.Histogram
	tl.TrackCounter("sent", &sent)
	tl.TrackHistogram("lat", &lat)
	for i := 0; i < 3; i++ {
		sent.Inc()
		lat.Observe(1000)
		advance(tl, clk, time.Second)
	}
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf, Query{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want header + 3 rows:\n%s", len(lines), buf.String())
	}
	header := lines[0]
	for _, col := range []string{"window_ms", "lat.count", "lat.p50", "lat.p90", "lat.p99", "sent"} {
		if !strings.Contains(header, col) {
			t.Errorf("csv header missing %q: %s", col, header)
		}
	}
	// x axis is ms relative to the first exported window.
	if !strings.HasPrefix(lines[1], "0,") || !strings.HasPrefix(lines[2], "1000,") {
		t.Errorf("csv x axis rows: %q, %q", lines[1], lines[2])
	}
}

// TestDebugEndpoint mounts a timeline at /debug/timeline on the obs mux
// and reads it back in every format.  The timeline is not the active
// one: the endpoint serves the timeline it is mounted with.
func TestDebugEndpoint(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	var c metrics.Counter
	tl.TrackCounter("dbg.sent", &c)
	c.Add(6)
	advance(tl, clk, time.Second)
	h := obs.Handler(obs.Endpoint{Path: "/debug/timeline", Desc: "metric curves", Handler: tl})

	get := func(url string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		return rr
	}

	if body := get("/debug/timeline").Body.String(); !strings.Contains(body, "dbg.sent") {
		t.Errorf("text body missing series:\n%s", body)
	}
	rr := get("/debug/timeline?format=json&series=dbg.sent")
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var doc struct {
		Meta   Meta         `json:"meta"`
		Series []SeriesData `json:"series"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("json body: %v", err)
	}
	if doc.Meta.Series != 1 || len(doc.Series) != 1 || doc.Series[0].Points[0].Value != 6 {
		t.Errorf("json doc = %+v", doc)
	}
	if body := get("/debug/timeline?format=jsonl").Body.String(); !strings.Contains(body, SchemaV1) {
		t.Errorf("jsonl body missing schema header:\n%s", body)
	}
	if body := get("/debug/timeline?format=csv&windows=1").Body.String(); !strings.Contains(body, "dbg.sent") {
		t.Errorf("csv body missing column:\n%s", body)
	}
	// The /debug index advertises the endpoint.
	if body := get("/debug").Body.String(); !strings.Contains(body, "/debug/timeline") {
		t.Errorf("/debug index missing /debug/timeline:\n%s", body)
	}
}
