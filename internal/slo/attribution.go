package slo

import (
	"sort"

	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/timeline"
)

// Attribution bounds: a bundle carries at most maxExemplars worst
// traces and maxDecisions audited inference decisions, and each client
// retains the last maxAttributions bundles.
const (
	maxExemplars    = 4
	maxDecisions    = 4
	maxAttributions = 4

	// Curve bounds: the windows leading up to the violation and how many
	// metric series a bundle may attach.
	maxCurveWindows = 16
	maxCurveSeries  = 12
)

// RadioSnapshot is a client's radio/tier state at violation time, as
// reported by a registered RadioSource (typically the base station).
type RadioSnapshot struct {
	BS       string
	SIRdB    float64
	Power    float64
	Distance float64
	Tier     int
}

// RadioSource reports the current radio snapshot for a client, and
// whether the source knows the client at all.
type RadioSource func(client string) (RadioSnapshot, bool)

// TraceExemplar references one flight-recorder trace that ended at the
// violating client — an entry point for /debug/trace forensics.
type TraceExemplar struct {
	ID        uint64
	Hops      int
	SpanUS    uint32
	LastStage string
}

// DecisionSummary condenses one audited inference decision from the
// window surrounding the violation.
type DecisionSummary struct {
	At        int64
	Fired     []string
	Budget    int
	Modality  string
	Satisfied bool
}

// Attribution is the evidence bundle captured when a client enters the
// violated state: what burned, which messages were worst, what the
// inference engine decided around that time, and what the radio looked
// like.
type Attribution struct {
	AtNS      int64
	Client    string
	Objective Objective
	BurnShort float64
	BurnLong  float64
	Traces    []TraceExemplar
	Decisions []DecisionSummary
	Radio     RadioSnapshot
	RadioOK   bool

	// Curves holds the metric windows surrounding the violation (the
	// client's own gauges, end-to-end latency and repair activity) when
	// a process-global timeline is enabled — the "what was trending when
	// it broke" view the flight-recorder exemplars cannot give.
	Curves []timeline.SeriesData
}

// captureAttribution assembles the bundle for a freshly violated
// client.  The engine calls it under its own lock, so sources must not
// call back into the engine (see RegisterRadioSource).
func captureAttribution(client string, worst Objective, burnShort, burnLong float64, nowNS int64, sources []*RadioSource) Attribution {
	a := Attribution{
		AtNS:      nowNS,
		Client:    client,
		Objective: worst,
		BurnShort: burnShort,
		BurnLong:  burnLong,
	}

	// Worst messages: traces whose final hop landed on this client,
	// ranked by total span.
	var mine []obs.TraceSummary
	for _, t := range obs.TraceSummaries(0) {
		if t.Last.Node == client {
			mine = append(mine, t)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].SpanUS > mine[j].SpanUS })
	if len(mine) > maxExemplars {
		mine = mine[:maxExemplars]
	}
	for _, t := range mine {
		a.Traces = append(a.Traces, TraceExemplar{
			ID:        t.ID,
			Hops:      t.Hops,
			SpanUS:    t.SpanUS,
			LastStage: t.Last.Stage.String(),
		})
	}

	// Surrounding inference decisions, newest first.
	for _, d := range inference.Audits(client, maxDecisions) {
		a.Decisions = append(a.Decisions, DecisionSummary{
			At:        d.At,
			Fired:     append([]string(nil), d.Fired...),
			Budget:    d.Budget,
			Modality:  d.Modality,
			Satisfied: d.Satisfied,
		})
	}

	for _, src := range sources {
		if snap, ok := (*src)(client); ok {
			a.Radio = snap
			a.RadioOK = true
			break
		}
	}

	a.Curves = captureCurves(client, nowNS)
	return a
}

// captureCurves pulls the recent metric windows relevant to client
// from the process-global timeline: the client's own labeled series,
// end-to-end latency and repair traffic.  Nil when no timeline is
// enabled — the bundle stays cheap by default.
func captureCurves(client string, nowNS int64) []timeline.SeriesData {
	tl := timeline.Active()
	if tl == nil {
		return nil
	}
	return tl.Query(timeline.Query{
		Contains: []string{
			`{client="` + metrics.EscapeLabel(client) + `"}`,
			"e2e_latency_ns",
			"repair.",
		},
		UntilNS:    nowNS,
		MaxWindows: maxCurveWindows,
		MaxSeries:  maxCurveSeries,
	})
}
