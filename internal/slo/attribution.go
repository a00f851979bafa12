package slo

import (
	"slices"
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

// RadioSnapshot is a client's radio/tier state as its base station
// last sampled it (ObserveRadio); a violation bundle copies it.
type RadioSnapshot struct {
	BS       string
	SIRdB    float64
	Power    float64
	Distance float64
	Tier     int
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
	// Traces are the worst retained traces that ended at the client,
	// longest span first: entry points for /debug/trace forensics.
	Traces []obs.TraceSummary
	// Decisions are the client's audited inference decisions, newest
	// first.
	Decisions []inference.AuditEntry
	Radio     RadioSnapshot
	RadioOK   bool

	// Curves holds the metric windows surrounding the violation (the
	// client's own gauges, end-to-end latency and repair activity) when
	// a process-global timeline is enabled — the "what was trending when
	// it broke" view the flight-recorder exemplars cannot give.
	Curves []timeline.SeriesData
}

// captureAttribution assembles the bundle for a freshly violated
// client from its state.  The engine calls it under its own lock.  The
// bundle is retained, so it clones what it keeps of each store's
// answer rather than pinning the whole answer.
func captureAttribution(client string, cs *clientState, nowNS int64) Attribution {
	// Worst messages: traces whose final hop landed on this client,
	// ranked by total span.
	var mine []obs.TraceSummary
	for _, t := range obs.TraceSummaries(0) {
		if t.Last.Node == client {
			mine = append(mine, t)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].SpanUS > mine[j].SpanUS })
	return Attribution{
		AtNS:      nowNS,
		Client:    client,
		Objective: cs.worst,
		BurnShort: cs.burnShort,
		BurnLong:  cs.burnLong,
		Traces:    slices.Clone(mine[:min(len(mine), maxExemplars)]),
		Decisions: slices.Clone(inference.Audits(client, maxDecisions)),
		Radio:     cs.radio,
		RadioOK:   cs.radioOK,
		Curves:    captureCurves(client, nowNS),
	}
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
