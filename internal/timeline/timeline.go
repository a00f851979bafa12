// Package timeline is the windowed telemetry store: each time its owner
// closes a window, it snapshots tracked metrics — counters, gauges,
// histograms, derived functions — into a bounded ring of per-window
// deltas, so observability gains a time axis without unbounded memory.
// Counter windows carry deltas (and rates); histogram windows carry
// *windowed* p50/p90/p99 computed from bucket deltas, not the lifetime
// quantiles /metrics exposes.
//
// The store is exposed three ways: Timeline.ServeHTTP, which a program
// mounts at /debug/timeline (debug.go), JSONL/CSV/text exporters for EXPERIMENTS.md figures
// (export.go), and the typed Query API (query.go) the SLO attribution
// bundle consumes.  The store schedules nothing: on a clock.Virtual
// its owners schedule SampleNow as their own events (cmd/collab's
// telemetry tick, the scenario and replay engines' window closes), so
// collab, qossim and qosreplay produce byte-deterministic per-window
// curves.
//
// House rules: the disabled path (timeline.Active() == nil) is one
// atomic load and zero allocations; an enabled steady-state sample is
// zero allocations however many series are tracked (all rings are
// preallocated; verified by TestTimelineSampleZeroAllocs and the CI
// overhead guard).
package timeline

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
)

// Defaults for Config.
const (
	DefaultWindow    = time.Second
	DefaultRetention = 600
)

// Config parameterizes a Timeline.
type Config struct {
	// Window is the window length the owner closes windows at, recorded
	// in exports (default 1s).
	Window time.Duration
	// Retention is how many closed windows the ring keeps (default 600
	// — ten minutes of 1s windows).
	Retention int
	// Clock stamps window bounds (required: clock.Wall for a live
	// process, the simulation's clock.Virtual under simulation).
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Retention <= 0 {
		c.Retention = DefaultRetention
	}
	return c
}

// Kind classifies a tracked series.
type Kind uint8

// The series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindDerived
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindDerived:
		return "derived"
	}
	return "unknown"
}

// histWindow is one histogram series' closed window: the observation
// delta plus windowed quantiles computed at close time.
type histWindow struct {
	count         uint64
	sum           uint64
	p50, p90, p99 float64
}

// series is one tracked metric and its preallocated ring.
type series struct {
	name string
	kind Kind

	ctr   *metrics.Counter
	gauge *metrics.Gauge
	hist  *metrics.Histogram
	fn    func() float64

	prevCount uint64                    // counter value at the last window close
	prevSnap  metrics.HistogramSnapshot // histogram state at the last window close

	vals []float64    // counter deltas / gauge values / derived values
	hws  []histWindow // histogram windows
}

// winBound is one closed window's [start, end) in clock nanoseconds.
type winBound struct{ startNS, endNS int64 }

// Timeline is the windowed store.  All sampling and registration is
// guarded by one mutex; sampling itself allocates nothing, so the
// critical section is short even with hundreds of series.
type Timeline struct {
	cfg Config
	clk clock.Clock

	mu       sync.Mutex
	series   []*series
	byName   map[string]*series
	trackAll bool
	regSize  int // registry size (metrics.Len) at the last rescan

	bounds []winBound
	head   int   // next ring slot to write
	filled int   // closed windows retained (<= Retention)
	lastNS int64 // start of the currently open window
}

// New creates a timeline.  The open window starts at the clock's
// current instant; nothing is sampled until the owner calls SampleNow.
func New(cfg Config) *Timeline {
	cfg = cfg.withDefaults()
	t := &Timeline{
		cfg:    cfg,
		clk:    cfg.Clock,
		byName: make(map[string]*series),
		bounds: make([]winBound, cfg.Retention),
	}
	t.lastNS = t.clk.Now().UnixNano()
	return t
}

// Window reports the configured window length.
func (t *Timeline) Window() time.Duration { return t.cfg.Window }

// Retention reports the ring capacity in windows.
func (t *Timeline) Retention() int { return t.cfg.Retention }

// WindowCount reports how many closed windows are retained.
func (t *Timeline) WindowCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.filled
}

// TrackCounter samples c's per-window delta under name.  The first
// registration of a name wins; duplicates are ignored.  Series
// registered mid-run show zeros for windows closed before they joined.
func (t *Timeline) TrackCounter(name string, c *metrics.Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trackCounterLocked(name, c)
	t.sortLocked()
}

// TrackGauge samples g's value at each window close under name.
func (t *Timeline) TrackGauge(name string, g *metrics.Gauge) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trackGaugeLocked(name, g)
	t.sortLocked()
}

// TrackHistogram samples h's per-window observation delta and windowed
// p50/p90/p99 under name.
func (t *Timeline) TrackHistogram(name string, h *metrics.Histogram) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trackHistogramLocked(name, h)
	t.sortLocked()
}

// TrackFunc samples fn() at each window close under name — derived
// series (a windowed loss ratio, a population count).  fn runs with
// the timeline lock held and must not allocate if the zero-alloc
// sampling contract matters to the caller.
func (t *Timeline) TrackFunc(name string, fn func() float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byName[name]; dup || fn == nil {
		return
	}
	s := &series{name: name, kind: KindDerived, fn: fn, vals: make([]float64, t.cfg.Retention)}
	t.addLocked(s)
	t.sortLocked()
}

// TrackAll tracks the entire registered metrics surface: every
// counter, gauge and histogram in the internal/metrics registry.  The
// registry is rescanned whenever its size changes, so metrics
// registered after TrackAll are picked up on the next window close;
// the steady-state sample stays allocation-free.
func (t *Timeline) TrackAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trackAll = true
	t.rescanLocked()
}

func (t *Timeline) trackCounterLocked(name string, c *metrics.Counter) {
	if _, dup := t.byName[name]; dup || c == nil {
		return
	}
	s := &series{name: name, kind: KindCounter, ctr: c, vals: make([]float64, t.cfg.Retention)}
	s.prevCount = c.Load()
	t.addLocked(s)
}

func (t *Timeline) trackGaugeLocked(name string, g *metrics.Gauge) {
	if _, dup := t.byName[name]; dup || g == nil {
		return
	}
	s := &series{name: name, kind: KindGauge, gauge: g, vals: make([]float64, t.cfg.Retention)}
	t.addLocked(s)
}

func (t *Timeline) trackHistogramLocked(name string, h *metrics.Histogram) {
	if _, dup := t.byName[name]; dup || h == nil {
		return
	}
	s := &series{name: name, kind: KindHistogram, hist: h, hws: make([]histWindow, t.cfg.Retention)}
	s.prevSnap = h.Snapshot()
	t.addLocked(s)
}

func (t *Timeline) addLocked(s *series) {
	t.series = append(t.series, s)
	t.byName[s.name] = s
}

// sortLocked keeps the series name-sorted so queries and exports are
// deterministic regardless of registration (or map iteration) order.
func (t *Timeline) sortLocked() {
	sort.Slice(t.series, func(i, j int) bool { return t.series[i].name < t.series[j].name })
}

// rescanLocked syncs the tracked set with the registry.  The size is
// read first, so a metric registered during the walk moves it again and
// is adopted on the next window close.
func (t *Timeline) rescanLocked() {
	t.regSize = metrics.Len()
	metrics.Each(func(name string, m any) {
		switch m := m.(type) {
		case *metrics.Counter:
			t.trackCounterLocked(name, m)
		case *metrics.Gauge:
			t.trackGaugeLocked(name, m)
		case *metrics.Histogram:
			t.trackHistogramLocked(name, m)
		}
	})
	t.sortLocked()
}

// SampleNow closes the open window at the clock's current instant.
func (t *Timeline) SampleNow() {
	t.mu.Lock()
	t.sampleLocked(t.clk.Now().UnixNano())
	t.mu.Unlock()
}

// Flush closes the open window if any time has passed since the last
// close — the partial tail a run's final export should include.
func (t *Timeline) Flush() {
	t.mu.Lock()
	if now := t.clk.Now().UnixNano(); now > t.lastNS {
		t.sampleLocked(now)
	}
	t.mu.Unlock()
}

// sampleLocked closes the open window [lastNS, nowNS) into the ring.
// Zero allocations in steady state: rings are preallocated, histogram
// snapshots and deltas live on the stack, and the TrackAll rescan only
// runs when the registry's size changed.
func (t *Timeline) sampleLocked(nowNS int64) {
	if t.trackAll && t.regSize != metrics.Len() {
		t.rescanLocked()
	}
	slot := t.head
	t.bounds[slot] = winBound{startNS: t.lastNS, endNS: nowNS}
	for _, s := range t.series {
		switch s.kind {
		case KindCounter:
			cur := s.ctr.Load()
			s.vals[slot] = float64(cur - s.prevCount)
			s.prevCount = cur
		case KindGauge:
			s.vals[slot] = s.gauge.Load()
		case KindDerived:
			s.vals[slot] = s.fn()
		case KindHistogram:
			snap := s.hist.Snapshot()
			var d metrics.HistogramSnapshot
			d.Count = snap.Count - s.prevSnap.Count
			d.Sum = snap.Sum - s.prevSnap.Sum
			for i := range snap.Buckets {
				d.Buckets[i] = snap.Buckets[i] - s.prevSnap.Buckets[i]
			}
			s.prevSnap = snap
			hw := &s.hws[slot]
			hw.count = d.Count
			hw.sum = d.Sum
			hw.p50 = d.Quantile(0.50)
			hw.p90 = d.Quantile(0.90)
			hw.p99 = d.Quantile(0.99)
		}
	}
	t.head = (slot + 1) % t.cfg.Retention
	if t.filled < t.cfg.Retention {
		t.filled++
	}
	t.lastNS = nowNS
}

// active is the process-global timeline consumers check: one atomic
// load, nil when disabled (the near-free default), so call sites pay
// nothing unless a timeline was explicitly enabled.
var active atomic.Pointer[Timeline]

// Enable installs t as the process-global timeline the SLO
// attribution curves read.  Enable(nil) disables.
func Enable(t *Timeline) { active.Store(t) }

// Disable clears the process-global timeline.
func Disable() { active.Store(nil) }

// Active returns the process-global timeline, or nil when disabled.
func Active() *Timeline { return active.Load() }
