// Command bench is the repository's benchmark: five named workloads
// driven through the program's public APIs over the real
// publish -> deliver path, end-to-end metrics measured with all
// instrumentation off, oracles on every output, and a separate traced
// pass that yields per-layer numbers.  See README.md in this directory.
// It is a module of its own (bench/go.mod, replacing the program's
// module by ../), so the program's own `go build ./...` and
// `go test ./...` neither build nor run it.  From the repository root:
//
//	go run -C bench .                      all workloads, one process each
//	go run -C bench . -workload bs-relay   one workload
//	go run -C bench . -aa                  two full sets, compared to the bounds
//
// The driver's form is
// `go run -C bench . --workload W --seed N --seconds S --trace 0|1`; the
// last line of standard output is then one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"adaptiveqos/internal/obs"
)

// Trace modes.
const (
	traceBoth   = -1 // end-to-end phases, then the traced pass; print both
	traceOff    = 0  // end-to-end metrics only
	traceLayers = 1  // per-layer metrics only (the e2e phases still run, shortened)
)

type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value, where it is a statistic
}

// record is everything one workload run produced.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	InputDigest string            `json:"input_digest"`
	Seconds     int               `json:"seconds"`
	Trace       int               `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Valid       bool              `json:"valid"` // open loop: the generator kept its schedule and the backlog did not grow
	Attempted   uint64            `json:"attempted"`
	Failed      uint64            `json:"failed"`
	Notes       []string          `json:"notes,omitempty"`
	E2E         map[string]sample `json:"end_to_end,omitempty"`
	Layers      map[string]sample `json:"per_layer,omitempty"`
	SpanFile    string            `json:"span_file,omitempty"`
	Slices      []float64         `json:"slices,omitempty"` // deliveries/s per timed-phase slice
}

// result is the driver's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for every generated input and link RNG")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed phase")
	trace := flag.Int("trace", traceBoth, "0 = end-to-end metrics only, 1 = per-layer metrics only, -1 = both")
	aa := flag.Bool("aa", false, "run two complete sets and compare them against the bounds")
	traceOut := flag.String("trace-out", "", "span file (default .bench_build/spans-<workload>.jsonl)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < traceBoth || *trace > traceLayers {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *aa:
		os.Exit(runAA(*seed, *seconds))
	case *name == "all":
		recs, ok := runSet(*seed, *seconds, *trace)
		printSummary(os.Stdout, recs)
		if !ok {
			os.Exit(1)
		}
	default:
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "spans-"+*name+".jsonl")
		}
		rec, err := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *trace, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		rec.Seconds = *seconds
		printRecord(os.Stdout, rec)
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

// runWorkload runs one workload in this process: setup (repeated for a
// steady setup_s), the timed phase, the latency phase, drain and
// oracles, then the traced pass.
func runWorkload(name string, seed int64, timedDur time.Duration, trace int, spanPath string) (*record, error) {
	quiesce()
	rec := &record{Workload: name, Seed: seed, Trace: trace, Fingerprint: takeFingerprint(),
		E2E: map[string]sample{}, Layers: map[string]sample{}}

	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		if err = w.generate(); err == nil {
			err = w.setup()
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		if busy := quiescent(); busy > quietWindow/10 {
			rec.Notes = append(rec.Notes, fmt.Sprintf("set-up %d: process used %v of CPU in the %v after warm-up", i, busy, quietWindow))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { w.close() }()
	rec.InputDigest = w.inputDigest()

	if trace == traceLayers {
		timedDur /= 2 // the traced pass needs the other half of the run
	}
	every := timedDur / numSlices
	ph := measure(every, func(ph *phase) { w.timed(timedDur, ph) })
	lay := layers{}
	w.counters(ph, lay)
	lat := w.latency(timedDur / 5)
	if lat == nil {
		lat = ph.completeUS
	}
	v := w.check()

	gated := specByName(gatedE2E)
	e2e := func(name string, v float64, n int) {
		rec.E2E[name] = sample{Value: v, Unit: gated[name].Unit, N: n}
	}
	perDelivery := func(x float64) float64 {
		if ph.deliveries == 0 {
			return 0
		}
		return x / float64(ph.deliveries)
	}
	e2e("setup_s", median(setups), len(setups))
	e2e("allocs_per_delivery", perDelivery(float64(ph.mallocs)), int(ph.deliveries))
	e2e("alloc_bytes_per_delivery", perDelivery(float64(ph.allocBytes)), int(ph.deliveries))
	e2e("wire_bytes_per_delivery", perDelivery(float64(ph.wireBytes)), int(ph.deliveries))
	e2e("heap_live_mb", float64(ph.heapLive)/1e6, int(ph.wall/(50*time.Millisecond)))

	counts := map[string]int{} // samples behind the statistics among the layer metrics
	rate := median(ph.slices)
	if len(ph.slices) == 0 && ph.wall > 0 {
		rate = float64(ph.deliveries) / ph.wall.Seconds()
	}
	rec.Slices = ph.slices
	cpuUS := perDelivery(float64(ph.cpu.Nanoseconds()) / 1e3)
	lay["deliveries_per_s"], counts["deliveries_per_s"] = rate, len(ph.slices)
	lay["cpu_us_per_delivery"], counts["cpu_us_per_delivery"] = cpuUS, int(ph.deliveries)
	for _, q := range []struct {
		name string
		q    float64
	}{{"complete_p50_us", 0.5}, {"complete_p90_us", 0.9}, {"core.complete_p99_us", 0.99}} {
		if val, ok := percentile(lat, q.q); len(lat) > 0 {
			lay[q.name], counts[q.name] = val, len(lat)
			if !ok {
				rec.Notes = append(rec.Notes, fmt.Sprintf("%s: n=%d is too few for this percentile (highest supported p%g)",
					q.name, len(lat), 100*highestSupported(len(lat))))
			}
		}
	}
	if ph.wall > 0 {
		lay["bench.offered_per_s"] = float64(ph.ops) / ph.wall.Seconds()
		lay["runtime.gc_pause_ms_per_s"] = float64(ph.gcPauseNS) / 1e6 / ph.wall.Seconds()
	}
	lay["runtime.heap_retained_mb"] = float64(ph.heapRetained) / 1e6
	lay["runtime.gc_cycles"] = float64(ph.gcCycles)
	lay["runtime.goroutines"] = float64(ph.goroutines)

	if trace != traceOff {
		tr := newTracer()
		if ladderUS := w.ladder(tr, lay); ladderUS > 0 && cpuUS > 0 {
			lay["core.unattributed_share"] = 1 - ladderUS/cpuUS
		}
		// The real pipeline again, under the program's own stage spans.
		for _, st := range obs.Stages() {
			obs.StageHistogram(st).Reset()
		}
		obs.SetEnabled(true)
		tph := measure(every, func(ph *phase) { w.timed(3*every+every/2, ph) })
		obs.SetEnabled(false)
		for _, st := range obs.Stages() {
			if snap := obs.StageHistogram(st).Snapshot(); slices.Contains(obsStages, st.String()) {
				lay["obs.stage."+st.String()+".p50_ns"] = snap.Quantile(0.5)
				lay["obs.stage."+st.String()+".count"] = float64(snap.Count)
			}
		}
		if s := obs.StageHistogram(obs.StageRepair).Snapshot(); s.Count > 0 {
			lay["repair.converge_p50_ms"] = s.Quantile(0.5) / 1e6
		}
		if rate > 0 && len(tph.slices) > 0 {
			lay["obs.tracing_overhead_ratio"] = median(tph.slices) / rate
		}
		lay["obs.span_ns"] = spanCost(tr)
		v = w.check() // the oracles are cumulative: this covers the traced pass too
		if err := tr.write(spanPath); err != nil {
			rec.Notes = append(rec.Notes, "span file: "+err.Error())
		} else {
			rec.SpanFile = spanPath
		}
	}

	if v.expected > 0 {
		lay["delivered_ratio"] = float64(v.applied) / float64(v.expected)
	}
	if v.attempted > 0 {
		lay["failed_share"] = float64(v.failed) / float64(v.attempted)
	}
	known := specByName(layerMetrics)
	for name, val := range lay {
		if spec, ok := known[name]; ok {
			rec.Layers[name] = sample{Value: val, Unit: spec.Unit, N: counts[name]}
		} else {
			rec.Notes = append(rec.Notes, "undeclared metric dropped: "+name)
		}
	}
	rec.Attempted, rec.Failed = max(v.attempted, 1), v.failed
	rec.Notes = append(rec.Notes, v.notes...)
	rec.Correct = v.failed == 0
	if !v.lossless {
		// Loss is injected: late repair may miss the drain deadline for a
		// few ops (they count as failed), but the applied share must hold.
		rec.Correct = v.expected > 0 && float64(v.applied)/float64(v.expected) >= 0.999 && !v.wrong
	}
	rec.Valid = v.invalid == ""
	if !rec.Valid {
		rec.Notes = append(rec.Notes, "run invalid: "+v.invalid)
	}
	return rec, nil
}

// spanCost times the program's own enabled stage span (start + end).
func spanCost(tr *tracer) float64 {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	for i := 0; i < 256; i++ {
		tr.doN("obs.span", i, fastReps, func() { obs.StartStage(1, obs.StageMatch).End() })
	}
	return tr.ns("obs.span")
}

// printRecord writes the human-readable metric lines, the full record
// as one JSON line, and last the driver's result object.
func printRecord(w io.Writer, rec *record) {
	fp := rec.Fingerprint
	fmt.Fprintf(w, "# %s seed=%d inputs=%s seconds=%d %s GOMAXPROCS=%d NumCPU=%d kernel=%s commit=%s dirty=%t bench=%s\n",
		rec.Workload, rec.Seed, rec.InputDigest, rec.Seconds, fp.GoVersion, fp.GOMAXPROCS, fp.NumCPU,
		fp.Kernel, fp.Commit, fp.Dirty, fp.SourceDigest)
	line := func(kind, name string, s sample) {
		n := ""
		if s.N > 0 {
			n = fmt.Sprintf("  (n=%d)", s.N)
		}
		fmt.Fprintf(w, "%-6s %-18s %-40s %16.4f %s%s\n", kind, rec.Workload, name, s.Value, s.Unit, n)
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]sample{}}
	if rec.Trace != traceLayers {
		for _, m := range gatedE2E {
			s := rec.E2E[m.Name]
			line("e2e", m.Name, s)
			res.Metrics[m.Name] = sample{Value: s.Value, Unit: s.Unit}
		}
		for _, m := range reportedE2E {
			s, ok := rec.Layers[m.Name]
			if !ok {
				s = sample{Unit: m.Unit}
			}
			line("e2e*", m.Name, s)
		}
	}
	if rec.Trace != traceOff {
		if rec.Trace == traceLayers {
			res.Metrics = map[string]sample{}
		}
		for _, m := range layerMetrics {
			s, ok := rec.Layers[m.Name]
			if !ok {
				s = sample{Unit: m.Unit} // 0: the layer is not on this workload's path
			}
			line("layer", m.Name, s)
			if rec.Trace == traceLayers {
				res.Metrics[m.Name] = sample{Value: s.Value, Unit: s.Unit}
			}
		}
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d correct=%t\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, n := range rec.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	full, _ := json.Marshal(rec)
	fmt.Fprintf(w, "record %s\n", full)
	last, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", last)
}

// runSet runs every workload once, each in a fresh process so that no
// workload inherits another's heap, caches or global counters.
func runSet(seed int64, seconds, trace int) ([]*record, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	ok := true
	var recs []*record
	for _, wl := range workloads {
		cmd := exec.Command(self, "-workload", wl.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
			ok = false
		}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(nil, 1<<22)
		for sc.Scan() {
			if rest, found := strings.CutPrefix(sc.Text(), "record "); found {
				rec := &record{}
				if json.Unmarshal([]byte(rest), rec) == nil {
					recs = append(recs, rec)
				}
			}
		}
	}
	return recs, ok && len(recs) == len(workloads)
}

func printSummary(w io.Writer, recs []*record) {
	fmt.Fprintf(w, "\n%-18s", "workload")
	for _, m := range gatedE2E {
		fmt.Fprintf(w, " %24s", m.Name)
	}
	fmt.Fprintf(w, " %8s\n", "correct")
	for _, r := range recs {
		fmt.Fprintf(w, "%-18s", r.Workload)
		for _, m := range gatedE2E {
			fmt.Fprintf(w, " %24.4f", r.E2E[m.Name].Value)
		}
		fmt.Fprintf(w, " %8t\n", r.Correct)
	}
}

// runAA runs two complete sets of the same code back to back, prints
// every workload x end-to-end metric pair next to its bound, and fails
// on a breach.
func runAA(seed int64, seconds int) int {
	a, okA := runSet(seed, seconds, traceOff)
	b, okB := runSet(seed, seconds, traceOff)
	if !okA || !okB {
		fmt.Fprintln(os.Stderr, "bench: a set failed; no comparison")
		return 1
	}
	byName := map[string]*record{}
	for _, r := range b {
		byName[r.Workload] = r
	}
	breaches := 0
	fmt.Printf("\n%-18s %-26s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "worse by", "bound")
	for _, ra := range a {
		rb := byName[ra.Workload]
		row := func(m metricSpec, va, vb float64) {
			worse := relWorse(va, vb, m.Better == "lower")
			mark := ""
			switch {
			case m.Unit == "s" || m.Unit == "us" || m.Unit == "1/s":
				// One pair of runs cannot hold a time on this box to any
				// bound (README "What is gated"): shown, not judged.
				mark = "  (time: not judged)"
			case worse > m.Bound || -worse > m.Bound:
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-26s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", ra.Workload, m.Name, va, vb, 100*worse, 100*m.Bound, mark)
		}
		for _, m := range gatedE2E {
			row(m, ra.E2E[m.Name].Value, rb.E2E[m.Name].Value)
		}
		for _, m := range reportedE2E {
			row(m, ra.Layers[m.Name].Value, rb.Layers[m.Name].Value)
		}
	}
	if breaches > 0 {
		fmt.Printf("A/A: %d pair(s) outside their bound\n", breaches)
		return 1
	}
	fmt.Println("A/A: every pair within its bound")
	return 0
}
