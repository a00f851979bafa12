package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMedianOfSlices(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{100, 1, 1, 1, 1000}, 1}, // one stalled slice does not move it
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestSlicerRatesElapsedTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := newSlicer(time.Second, t0, 100)
	s.tick(t0.Add(500*time.Millisecond), 150) // inside the slice: nothing closes
	s.tick(t0.Add(2*time.Second), 300)        // late tick: rated over the 2 s that passed
	s.tick(t0.Add(3*time.Second), 1300)
	if len(s.rates) != 2 || s.rates[0] != 100 || s.rates[1] != 1000 {
		t.Fatalf("rates = %v, want [100 1000]", s.rates)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.5, 500, true},
		{1000, 0.9, 900, true},
		{1000, 0.99, 990, true}, // exactly ten samples beyond
		{999, 0.99, 990, false}, // nine beyond
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
	} {
		got, ok := percentile(xs[:c.n], c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample supports a percentile")
	}
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 0.5, 99: 0.5, 100: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	onTime := make([]float64, 1000)
	for i := range onTime {
		onTime[i] = 100
	}
	steady := []float64{40, 90, 60, 120, 80, 70, 110, 50}
	if ok, why := (&lateness{lateUS: onTime, backlog: steady}).valid(1000); !ok {
		t.Errorf("on-time run with a fluctuating backlog judged invalid: %s", why)
	}
	late := append([]float64(nil), onTime...)
	for i := 0; i < 20; i++ { // 2% of sends start 5 ms late
		late[i*50] = 5000
	}
	if ok, _ := (&lateness{lateUS: late, backlog: steady}).valid(1000); ok {
		t.Error("a generator that is late at p99 must invalidate the run")
	}
	growing := []float64{50, 60, 55, 70, 400, 900, 1800, 3500}
	if ok, _ := (&lateness{lateUS: onTime, backlog: growing}).valid(1000); ok {
		t.Error("a backlog growing over the last four slices must invalidate the run")
	}
	if backlogGrowing([]float64{50, 60, 55, 70, 61, 62, 63, 64}) {
		t.Error("a slow drift inside the normal range is not a growing backlog")
	}
	if backlogGrowing([]float64{10, 20, 30}) {
		t.Error("fewer than four slices cannot show growth")
	}
}

func TestRelWorse(t *testing.T) {
	if got := relWorse(100, 110, true); got < 0.0999 || got > 0.1001 {
		t.Errorf("lower-is-better 100 -> 110 = %v, want +0.10", got)
	}
	if got := relWorse(100, 110, false); got > -0.0999 || got < -0.1001 {
		t.Errorf("higher-is-better 100 -> 110 = %v, want -0.10", got)
	}
}

func TestTracerLadder(t *testing.T) {
	tr := &tracer{epoch: time.Now(), counts: map[string]uint64{}}
	tr.spans = []span{
		{Name: "op", Start: 0, End: 1000, Parent: -1, Reps: 1},
		{Name: "a", Start: 100, End: 400, Parent: 0, Reps: 1},
		{Name: "b", Start: 400, End: 900, Parent: 0, Reps: 10},
		{Name: "stray", Start: 2000, End: 2500, Parent: -1, Reps: 1},
	}
	if got := tr.totalNS("b"); got != 500 {
		t.Errorf("total time of b = %v, want its whole span, 500", got)
	}
	if got := tr.ladderNS("op"); got != 300+50 {
		t.Errorf("ladder = %v, want a's 300 plus b's 500/10", got)
	}
	if got := tr.ns("b"); got != 50 {
		t.Errorf("per-call time of b = %v, want 50", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json's keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec holds the declaration the driver reads
// to the tables the program prints from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, program %q (or their why differs)", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(gatedE2E) {
		t.Fatalf("%d end_to_end metrics declared, %d in the program", len(b.EndToEnd), len(gatedE2E))
	}
	for i, m := range gatedE2E {
		d := b.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end %d: declared %+v, program %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics declared, %d in the program", len(b.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for _, m := range gatedE2E {
		seen[m.Name] = true
	}
	for i, m := range layerMetrics {
		d := b.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer %d: declared %+v, program %+v", i, d, m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(layerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(layerMetrics))
	}
}

func TestSeededInputs(t *testing.T) {
	digest := func(name string, seed int64) string {
		w, err := newWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.generate(); err != nil {
			t.Fatal(err)
		}
		return w.inputDigest()
	}
	for _, wl := range workloads {
		a, again, other := digest(wl.Name, 7), digest(wl.Name, 7), digest(wl.Name, 8)
		if a != again {
			t.Errorf("%s: seed 7 gave digests %s and %s", wl.Name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", wl.Name, a)
		}
	}
}

// TestSmokeEveryWorkload runs each workload for a fraction of a second
// with its oracles on, through both of the driver's output modes, and
// checks that exactly the declared metric names are printed.
func TestSmokeEveryWorkload(t *testing.T) {
	setupReps, smokeScale = 1, 10
	defer func() { setupReps, smokeScale = 5, 1 }()
	b := loadBenchmarkJSON(t)
	for _, wl := range workloads {
		rec, err := runWorkload(wl.Name, 3, 320*time.Millisecond, traceBoth, filepath.Join(t.TempDir(), "spans.jsonl"))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s: correct=%t failed=%d notes=%v", wl.Name, rec.Correct, rec.Failed, rec.Notes)
		}
		for _, n := range rec.Notes {
			if strings.HasPrefix(n, "undeclared metric") {
				t.Errorf("%s: %s", wl.Name, n)
			}
		}
		if fi, err := os.Stat(rec.SpanFile); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file written (%v)", wl.Name, err)
		}
		fp := rec.Fingerprint
		if fp.GoVersion == "" || fp.GOMAXPROCS < 1 || fp.NumCPU < 1 || fp.Kernel == "" || fp.Commit == "" || len(fp.SourceDigest) != 16 {
			t.Errorf("%s: incomplete fingerprint %+v", wl.Name, fp)
		}
		for _, m := range gatedE2E {
			if rec.E2E[m.Name].Value <= 0 {
				t.Errorf("%s: gated metric %s = %v, must be positive", wl.Name, m.Name, rec.E2E[m.Name].Value)
			}
		}
		// The driver's two modes print exactly the declared names.
		for mode, want := range map[int]int{traceOff: len(b.EndToEnd), traceLayers: len(b.PerLayer)} {
			rec.Trace = mode
			var out bytes.Buffer
			printRecord(&out, rec)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", wl.Name, err)
			}
			if res.Attempted < 1 || len(res.Metrics) != want {
				t.Errorf("%s trace=%d: attempted %d, %d metrics, want %d", wl.Name, mode, res.Attempted, len(res.Metrics), want)
			}
			declared := map[string]string{}
			if mode == traceOff {
				for _, m := range b.EndToEnd {
					declared[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					declared[m.Name] = m.Unit
				}
			}
			for name, s := range res.Metrics {
				if unit, ok := declared[name]; !ok || unit != s.Unit {
					t.Errorf("%s trace=%d: printed %s [%s], declared unit %q (declared=%t)", wl.Name, mode, name, s.Unit, unit, ok)
				}
			}
		}
	}
}
