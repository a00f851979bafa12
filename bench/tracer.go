package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark itself (spans inside the program are a later change).
// Times are nanoseconds since the tracer's epoch.  A span with Reps > 1
// timed that many identical calls back to back, because one call is too
// short to time on its own; its per-call time is the duration divided
// by Reps.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Op     int    `json:"op"`     // the sampled operation the span belongs to
	Reps   int    `json:"reps"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	stack   []int
	counts  map[string]uint64 // work counted at the same boundaries
	innerNS float64           // what an empty span measures (clock reads)
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), counts: make(map[string]uint64)}
	// Calibrate on a scratch tracer so the calibration spans stay out
	// of the trace.
	c := &tracer{epoch: t.epoch}
	for i := 0; i < 4096; i++ {
		c.do("calibrate", 0, func() {})
	}
	t.innerNS = c.ns("calibrate")
	return t
}

// do records a span around fn.
func (t *tracer) do(name string, op int, fn func()) { t.doN(name, op, 1, fn) }

// doN records one span around reps back-to-back calls of fn.
func (t *tracer) doN(name string, op, reps int, fn func()) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Reps: reps})
	t.stack = append(t.stack, idx)
	start := time.Since(t.epoch)
	for i := 0; i < reps; i++ {
		fn()
	}
	end := time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].Start, t.spans[idx].End = int64(start), int64(end)
	if t.counts != nil {
		t.counts[name] += uint64(reps)
	}
}

// perCall is a span's per-call time with the clock-read cost removed.
func (t *tracer) perCall(s span) float64 {
	d := float64(s.End-s.Start) - t.innerNS
	if d < 0 {
		d = 0
	}
	return d / float64(s.Reps)
}

// ns returns the median per-call time of the spans called name.
func (t *tracer) ns(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, t.perCall(s))
		}
	}
	return median(xs)
}

// totalNS returns the summed time of the spans called name.
func (t *tracer) totalNS(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += t.perCall(s) * float64(s.Reps)
		}
	}
	return sum
}

// ladderNS sums the per-call time of every leaf span under the roots
// called root: the single-goroutine cost of walking one operation
// through the layers.  A leaf's self time is its duration; a parent's
// self time (its span minus its children) is the benchmark's own glue
// and is left out.
func (t *tracer) ladderNS(root string) float64 {
	hasChild := make([]bool, len(t.spans))
	under := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
			under[i] = under[s.Parent]
		}
		if s.Name == root {
			under[i] = true
		}
	}
	var sum float64
	for i, s := range t.spans {
		if under[i] && !hasChild[i] && s.Name != root {
			sum += t.perCall(s)
		}
	}
	return sum
}

// write stores the spans as JSONL, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocsPer returns heap allocations per call of fn over n calls.  The
// rest of the process must be idle while it runs.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
