package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Gauge is a last-value metric, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value (0 before the first Set).
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// table is the process-global registry: one name→metric map under one
// mutex, where a name holds exactly one kind — a *Counter, *Gauge or
// *Histogram.  Hot paths hold handles; the map is only consulted at
// registration and exposition time.  famCount counts each labeled
// gauge family's children, for GaugeCardinalityLimit.
var table = struct {
	mu       sync.Mutex
	m        map[string]any
	famCount map[string]int
}{
	m:        make(map[string]any),
	famCount: make(map[string]int),
}

// GaugeCardinalityLimit caps how many labeled children one gauge family
// may register.  Per-client families (slo_state{client=...},
// client_sir_db{client=...}) are unbounded in principle — at 100k sim
// clients a /metrics scrape, and every timeline snapshot, would walk
// 300k+ gauges.  A set that would register a child past the cap is
// dropped and counted on aqos_gauge_cardinality_dropped.
const GaugeCardinalityLimit = 256

// getLocked returns (creating on demand) the metric of kind T named
// name.  A name registered as another kind is a programming error and
// panics.  Caller holds table.mu.
func getLocked[T Counter | Gauge | Histogram](name string) *T {
	m, ok := table.m[name]
	if !ok {
		t := new(T)
		table.m[name] = t
		return t
	}
	t, ok := m.(*T)
	if !ok {
		panic(fmt.Sprintf("metrics: %q is registered as %T, asked for as %T", name, m, t))
	}
	return t
}

func get[T Counter | Gauge | Histogram](name string) *T {
	table.mu.Lock()
	defer table.mu.Unlock()
	return getLocked[T](name)
}

// C returns (creating on demand) the named counter.
func C(name string) *Counter { return get[Counter](name) }

// H returns (creating on demand) the named histogram.  Names may carry
// Prometheus-style labels: `stage_latency_ns{stage="match"}`.
func H(name string) *Histogram { return get[Histogram](name) }

// SetGauge sets the named gauge, registering it on first use.  A set
// that would register a child of a labeled family past its cardinality
// cap is dropped and counted on aqos_gauge_cardinality_dropped instead.
func SetGauge(name string, v float64) {
	table.mu.Lock()
	defer table.mu.Unlock()
	if _, ok := table.m[name]; !ok {
		if fam, _, labeled := strings.Cut(name, "{"); labeled {
			if table.famCount[fam] >= GaugeCardinalityLimit {
				getLocked[Counter](CtrGaugeCardinalityDropped).Inc()
				return
			}
			table.famCount[fam]++
		}
	}
	getLocked[Gauge](name).Set(v)
}

// Each calls fn for every registered metric in name order; m is its
// *Counter, *Gauge or *Histogram.  fn runs on a snapshot of the table,
// outside its lock; handle-caching readers (the timeline sampler) keep
// the handles and read them lock-free afterwards.
func Each(fn func(name string, m any)) {
	type entry struct {
		name string
		m    any
	}
	table.mu.Lock()
	all := make([]entry, 0, len(table.m))
	for name, m := range table.m {
		all = append(all, entry{name, m})
	}
	table.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, e := range all {
		fn(e.name, e.m)
	}
}

// Len reports how many metrics are registered — a cheap change
// detector for readers that cache handles.
func Len() int {
	table.mu.Lock()
	defer table.mu.Unlock()
	return len(table.m)
}

// Counters returns the current value of every registered counter.
func Counters() map[string]uint64 {
	out := make(map[string]uint64)
	Each(func(name string, m any) {
		if c, ok := m.(*Counter); ok {
			out[name] = c.Load()
		}
	})
	return out
}
