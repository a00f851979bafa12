package slo

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"adaptiveqos/internal/obs"
)

// ServeHTTP serves the engine's WriteSummary as text: a program mounts
// it at /debug/slo, where ?client=<id> filters to one client.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	e.WriteSummary(w, r.URL.Query().Get("client"))
}

// WriteSummary renders the engine's conformance view as text: the
// per-client table, the transition log, and the latest violation
// attributions.  client filters to one client when non-empty.  Shared
// by /debug/slo and collab's session summary.
func (e *Engine) WriteSummary(w io.Writer, client string) {
	status := e.Status()

	fmt.Fprintf(w, "slo conformance (%d clients, monitoring %s); filter with ?client=<id>\n\n",
		len(status), onOff(Enabled()))
	fmt.Fprintf(w, "%-12s %-12s %-11s %-10s %6s %10s %10s  %s\n",
		"CLIENT", "CLASS", "STATE", "WORST", "VIOL", "BURN-S", "BURN-L", "PER-OBJECTIVE BURN (short/long)")
	for _, st := range status {
		if client != "" && st.Client != client {
			continue
		}
		var per []string
		for o := Objective(0); o < numObjectives; o++ {
			b := st.Burns[o]
			if b.Short == 0 && b.Long == 0 {
				continue
			}
			per = append(per, fmt.Sprintf("%s=%.2f/%.2f", o, b.Short, b.Long))
		}
		fmt.Fprintf(w, "%-12s %-12s %-11s %-10s %6d %10.2f %10.2f  %s\n",
			st.Client, st.Class, st.State, st.Worst, st.Violations,
			st.BurnShort, st.BurnLong, strings.Join(per, " "))
	}

	trs := e.Transitions(0)
	fmt.Fprintf(w, "\ntransitions (%d recorded):\n", len(trs))
	for _, tr := range trs {
		if client != "" && tr.Client != client {
			continue
		}
		fmt.Fprintf(w, "  %s %-12s %s -> %s  (worst=%s burn=%.2f/%.2f)\n",
			timeOfDay(tr.AtNS),
			tr.Client, tr.From, tr.To, tr.Objective, tr.BurnShort, tr.BurnLong)
	}

	for _, st := range status {
		if client != "" && st.Client != client {
			continue
		}
		for _, a := range e.Attributions(st.Client) {
			writeAttribution(w, a)
		}
	}
}

// timeOfDay formats an instant in UTC, so a summary reads the same in
// every zone (a virtual clock's instants print as offsets from its
// epoch's midnight).
func timeOfDay(ns int64) string { return time.Unix(0, ns).UTC().Format("15:04:05.000") }

func writeAttribution(w io.Writer, a Attribution) {
	fmt.Fprintf(w, "\nviolation %s client=%s objective=%s burn=%.2f/%.2f\n",
		timeOfDay(a.AtNS),
		a.Client, a.Objective, a.BurnShort, a.BurnLong)
	if len(a.Traces) == 0 {
		fmt.Fprintf(w, "  worst traces: (none retained)\n")
	}
	for _, t := range a.Traces {
		fmt.Fprintf(w, "  trace %s span=%dus hops=%d last=%s\n",
			obs.TraceHex(t.ID), t.SpanUS, t.Hops, t.Last.Stage)
	}
	for _, d := range a.Decisions {
		fired := strings.Join(d.Fired, ",")
		if fired == "" {
			fired = "(none)"
		}
		contract := "satisfied"
		if !d.Satisfied {
			contract = "violated"
		}
		fmt.Fprintf(w, "  decision %s budget=%d modality=%s %s fired=%s\n",
			timeOfDay(d.At), d.Budget, orKeep(d.Modality), contract, fired)
	}
	if a.RadioOK {
		fmt.Fprintf(w, "  radio bs=%s sir=%.1fdB power=%.2f distance=%.0fm tier=%d\n",
			a.Radio.BS, a.Radio.SIRdB, a.Radio.Power, a.Radio.Distance, a.Radio.Tier)
	}
	for _, sd := range a.Curves {
		if len(sd.Points) == 0 {
			continue
		}
		last := sd.Points[len(sd.Points)-1]
		v := last.Value
		if sd.Kind == "histogram" {
			v = last.P99
		}
		fmt.Fprintf(w, "  curve %-40s windows=%d last=%.3f\n", sd.Name, len(sd.Points), v)
	}
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

func orKeep(m string) string {
	if m == "" {
		return "(keep)"
	}
	return m
}
