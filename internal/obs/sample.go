package obs

import (
	"time"

	"adaptiveqos/internal/metrics"
)

// SamplerFunc feeds one component's QoS telemetry into named gauges,
// calling set once per metric; names may carry labels
// (`client_sir_db{client="w0"}`).
type SamplerFunc func(set func(name string, value float64))

// Sample runs every sampler once, at now, into the registry's gauges.
// Under a session recorder each sampled gauge is also a qos event
// stamped now, the instant on the caller's clock.
func Sample(now time.Time, samplers ...SamplerFunc) {
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
