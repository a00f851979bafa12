// Package obs is the runtime observability layer threaded through the
// delivery pipeline: log-bucketed latency histograms and gauges
// alongside the event counters in internal/metrics, per-message
// pipeline stage spans feeding per-stage histograms and a ring-buffer
// event log, a periodic QoS telemetry collector, and a text exposition
// endpoint (Prometheus-style /metrics plus a human /debug/qos dump).
//
// Instrumentation is near-free when disabled: hot paths check one
// process-global atomic flag per stage entry, span handles are value
// types that no-op when the flag is off, and the disabled path
// performs zero allocations (verified by TestDisabledPathZeroAllocs
// and guarded in CI by TestDisabledOverheadGuard).
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled is the process-global instrumentation switch.  Pipeline
// entry points load it once per stage; everything downstream of a
// disabled check is skipped entirely.
var enabled atomic.Bool

// SetEnabled turns pipeline instrumentation on or off at runtime.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether pipeline instrumentation is on.
func Enabled() bool { return enabled.Load() }

// MsgID derives the stable trace identifier for a message from its
// sender and sender-scoped sequence number (FNV-1a over the sender,
// mixed with the seq).  Every pipeline hop can recompute it from the
// message itself, so the trace context crosses the wire for free — no
// envelope format change, no allocation — including for a receiver that
// holds the sender only as the bytes of a frame it has not decoded.
func MsgID[S string | []byte](sender S, seq uint32) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(sender); i++ {
		h ^= uint64(sender[i])
		h *= 1099511628211
	}
	h ^= uint64(seq)
	h *= 1099511628211
	return h
}

// Gauge is a last-value metric, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Load returns the current value (0 before the first Set).
func (g *Gauge) Load() float64 { return bitsFloat(g.bits.Load()) }

// registry holds the process-global named histograms and gauges.
// Hot paths hold *Histogram / *Gauge handles; the maps are only
// consulted at registration and exposition time.  famCount tracks how
// many labeled children each gauge family has registered (the
// cardinality cap, cardinality.go); overflow holds the per-family
// aggregates for sets beyond the cap.
var reg = struct {
	mu       sync.Mutex
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	famCount map[string]int
	overflow map[string]*overflowAgg
}{
	hists:    make(map[string]*Histogram),
	gauges:   make(map[string]*Gauge),
	famCount: make(map[string]int),
	overflow: make(map[string]*overflowAgg),
}

// H returns (creating on demand) the named histogram.  Names may
// carry Prometheus-style labels: `stage_latency_ns{stage="match"}`.
func H(name string) *Histogram {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	h, ok := reg.hists[name]
	if !ok {
		h = &Histogram{}
		reg.hists[name] = h
	}
	return h
}

// gaugeForLocked resolves name to a registered gauge, creating it on
// demand within the family cardinality cap.  Past the cap it returns
// (nil, family) so the caller can fold the value into the family's
// overflow aggregate.  Caller holds reg.mu.
func gaugeForLocked(name string) (g *Gauge, overflowFam string) {
	if g, ok := reg.gauges[name]; ok {
		return g, ""
	}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		fam := name[:i]
		if limit := GaugeCardinalityLimit(); limit > 0 && reg.famCount[fam] >= limit {
			return nil, fam
		}
		reg.famCount[fam]++
	}
	g = &Gauge{}
	reg.gauges[name] = g
	return g, ""
}

// SetGauge sets the named gauge (collector convenience).  Sets against
// a labeled family past its cardinality cap fold into the family's
// min/mean/max overflow aggregate and bump
// aqos_gauge_cardinality_dropped instead.
func SetGauge(name string, v float64) {
	reg.mu.Lock()
	g, fam := gaugeForLocked(name)
	if g == nil {
		overflowObserveLocked(fam, v)
		reg.mu.Unlock()
		gaugeDropped.Inc()
		return
	}
	reg.mu.Unlock()
	g.Set(v)
}

// Gauges returns a snapshot of every registered gauge.
func Gauges() map[string]float64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[string]float64, len(reg.gauges))
	for name, g := range reg.gauges {
		out[name] = g.Load()
	}
	return out
}

// Histograms returns a snapshot of every registered histogram.
func Histograms() map[string]HistogramSnapshot {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(reg.hists))
	for name, h := range reg.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// EachGauge calls fn for every registered gauge.  The registry lock is
// held for the duration, so fn must not call back into registration;
// handle-caching consumers (the timeline sampler) grab pointers here
// once and read them lock-free afterwards.  Iteration order is
// unspecified.
func EachGauge(fn func(name string, g *Gauge)) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for name, g := range reg.gauges {
		fn(name, g)
	}
}

// EachHistogram is EachGauge for histograms (same locking contract).
func EachHistogram(fn func(name string, h *Histogram)) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for name, h := range reg.hists {
		fn(name, h)
	}
}

// NumGauges reports the registered gauge count — a cheap change
// detector for consumers that cache handle lists.
func NumGauges() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.gauges)
}

// NumHistograms reports the registered histogram count.
func NumHistograms() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.hists)
}

// sortedKeys returns the map's keys in sorted order (exposition).
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
