package obs

import (
	"time"

	"adaptiveqos/internal/metrics"
)

// SamplerFunc feeds one component's QoS telemetry into named gauges.
// Implementations call set once per metric; names may carry
// Prometheus-style labels (`client_sir_db{client="w0"}`).  The base
// station, clients and host agents expose SampleQoS methods with this
// shape.
type SamplerFunc func(set func(name string, value float64))

// Sample runs every sampler once, at now, into the registry's gauges:
// per-client SIR, service tier and power-control state from base
// stations, RTCP loss/jitter from clients, and host parameters from
// host agents.  When a session recorder is installed, each sampled
// gauge is also appended to the record as a qos event stamped now, the
// instant on the caller's clock.
func Sample(now time.Time, samplers ...SamplerFunc) {
	// Each sampling round re-bases the gauge-overflow aggregates, so the
	// capped families' min/mean/max describe this round's spread.
	metrics.StartGaugeOverflowRound()
	set := metrics.SetGauge
	if r := rec.Load(); r != nil {
		at := now.UnixNano()
		set = func(name string, value float64) {
			metrics.SetGauge(name, value)
			r.Append(RecEvent{Type: RecTypeQoS, AtNS: at, Name: name, Value: value})
		}
	}
	for _, fn := range samplers {
		fn(set)
	}
}
