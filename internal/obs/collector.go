package obs

import (
	"sync"
	"time"

	"adaptiveqos/internal/metrics"
)

// SamplerFunc feeds one component's QoS telemetry into named gauges.
// Implementations call set once per metric; names may carry
// Prometheus-style labels (`client_sir_db{client="w0"}`).  The base
// station, clients and host agents expose SampleQoS methods with this
// shape.
type SamplerFunc func(set func(name string, value float64))

// Collector periodically samples registered components into the
// registry's gauges: per-client SIR, service tier and power-control
// state from base stations, RTCP loss/jitter from clients, and host
// parameters from host agents.
type Collector struct {
	interval time.Duration // fixed at NewCollector

	mu       sync.Mutex
	samplers []SamplerFunc
	stop     chan struct{}
	done     chan struct{}
}

// NewCollector creates a collector sampling every interval; interval
// <= 0 means 1s.
func NewCollector(interval time.Duration) *Collector {
	if interval <= 0 {
		interval = time.Second
	}
	return &Collector{interval: interval}
}

// Register adds a sampler.  Safe while running: the loop copies the
// slice per tick, so a sampler registered after Start is picked up on
// the next fire without a restart.
func (c *Collector) Register(fn SamplerFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samplers = append(c.samplers, fn)
}

// SampleOnce runs every sampler immediately (deterministic snapshots
// for tests and debug dumps).  When a session recorder is installed,
// each sampled gauge is also appended to the record as a qos event.
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

// Start launches the periodic sampling loop.  A second Start without
// an intervening Stop is a no-op.
func (c *Collector) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		// Re-arm before sampling so the next fire is already scheduled
		// when samplers observe this one.
		timer := clockOrWall().NewTimer(c.interval)
		defer timer.Stop()
		for {
			select {
			case <-stop:
				return
			case <-timer.C():
				timer.Reset(c.interval)
				c.SampleOnce()
			}
		}
	}(c.stop, c.done)
}

// Stop halts the sampling loop and waits for it to exit.
func (c *Collector) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
