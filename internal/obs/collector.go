package obs

import (
	"sync"

	"adaptiveqos/internal/metrics"
)

// SamplerFunc feeds one component's QoS telemetry into named gauges.
// Implementations call set once per metric; names may carry
// Prometheus-style labels (`client_sir_db{client="w0"}`).  The base
// station, clients and host agents expose SampleQoS methods with this
// shape.
type SamplerFunc func(set func(name string, value float64))

// Collector samples registered components into the registry's gauges
// each time its owner calls SampleOnce: per-client SIR, service tier and
// power-control state from base stations, RTCP loss/jitter from clients,
// and host parameters from host agents.
type Collector struct {
	mu       sync.Mutex
	samplers []SamplerFunc
}

// NewCollector creates a collector with no samplers.
func NewCollector() *Collector { return &Collector{} }

// Register adds a sampler.  Safe while another goroutine samples:
// SampleOnce copies the slice, so a sampler registered mid-run joins
// the next round.
func (c *Collector) Register(fn SamplerFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samplers = append(c.samplers, fn)
}

// SampleOnce runs every sampler once.  When a session recorder is
// installed, each sampled gauge is also appended to the record as a qos
// event.
func (c *Collector) SampleOnce() {
	c.mu.Lock()
	samplers := make([]SamplerFunc, len(c.samplers))
	copy(samplers, c.samplers)
	c.mu.Unlock()
	// Each sampling round re-bases the gauge-overflow aggregates, so the
	// capped families' min/mean/max describe this round's spread.
	metrics.StartGaugeOverflowRound()
	set := metrics.SetGauge
	if r := rec.Load(); r != nil {
		at := nowNS()
		set = func(name string, value float64) {
			metrics.SetGauge(name, value)
			r.Append(RecEvent{Type: RecTypeQoS, AtNS: at, Name: name, Value: value})
		}
	}
	for _, fn := range samplers {
		fn(set)
	}
}
