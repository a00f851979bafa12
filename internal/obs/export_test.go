package obs

// Hooks only this package's tests use; kept out of the production
// surface (the census gate, internal/census, would report them).

import (
	"errors"

	"adaptiveqos/internal/metrics"
)

// UnmarshalWireTrace parses a trace extension blob into its trace ID
// and hop records.
func UnmarshalWireTrace(blob []byte) (uint64, []Hop, error) {
	id, wire, ok := parseWireTrace(nil, blob)
	if !ok {
		return 0, nil, errors.New("obs: malformed trace extension")
	}
	hops := make([]Hop, len(wire))
	for i, h := range wire {
		hops[i] = Hop{Node: string(h.node), Stage: h.stage, DeltaUS: h.delta}
	}
	return id, hops, nil
}

// gauges snapshots every registered gauge.
func gauges() map[string]float64 {
	out := make(map[string]float64)
	metrics.Each(func(name string, m any) {
		if g, ok := m.(*metrics.Gauge); ok {
			out[name] = g.Load()
		}
	})
	return out
}
