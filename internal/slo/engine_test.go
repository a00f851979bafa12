package slo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/timeline"
)

// testSpec is a loss-objective-only spec with second-scale windows the
// tests can walk deterministically: budget 0.1, so burn = mean/0.1.
func testSpec() Spec {
	return Spec{
		Class:            "test",
		LossMax:          0.1,
		ShortWindow:      time.Second,
		LongWindow:       4 * time.Second,
		HoldDown:         time.Second,
		RecoveryDeadline: 4 * time.Second,
	}.withDefaults()
}

func counterDelta(t *testing.T, name string, before map[string]uint64) uint64 {
	t.Helper()
	return metrics.Counters()[name] - before[name]
}

// feed observes n loss samples of value v spread over the bucket at t.
func feed(e *Engine, client string, at time.Time, v float64, n int) {
	for i := 0; i < n; i++ {
		e.Observe(client, ObjLoss, v, at)
	}
}

func TestConformanceStateMachineFullWalk(t *testing.T) {
	before := metrics.Counters()
	e := NewEngine(testSpec())
	base := time.Unix(1000, 0)

	// Healthy: loss well under budget.
	feed(e, "c1", base, 0.01, 4)
	e.Poll(base.Add(200 * time.Millisecond))
	if st := status(e, "c1"); st.State != StateConforming {
		t.Fatalf("healthy state = %s, want conforming", st.State)
	}

	// Short-window burn 1.5 (0.15/0.1): at-risk, not violated (short
	// burn below the violate threshold).
	feed(e, "c1", base.Add(1*time.Second), 0.15, 4)
	e.Poll(base.Add(1200 * time.Millisecond))
	if st := status(e, "c1"); st.State != StateAtRisk {
		t.Fatalf("at-risk walk: state = %s (burn %.2f/%.2f)", st.State, st.BurnShort, st.BurnLong)
	}

	// Burn 5 short with the long window confirming: violated.
	feed(e, "c1", base.Add(2*time.Second), 0.5, 4)
	e.Poll(base.Add(2200 * time.Millisecond))
	if st := status(e, "c1"); st.State != StateViolated || st.Violations != 1 {
		t.Fatalf("violated walk: state = %s violations = %d", st.State, st.Violations)
	}

	// Burn dies down: recovered (within the deadline → effective).
	feed(e, "c1", base.Add(3500*time.Millisecond), 0.01, 4)
	e.Poll(base.Add(3700 * time.Millisecond))
	if st := status(e, "c1"); st.State != StateRecovered {
		t.Fatalf("recovery walk: state = %s (burn %.2f/%.2f)", st.State, st.BurnShort, st.BurnLong)
	}

	// Clean through the hold-down: conforming again.
	e.Poll(base.Add(5 * time.Second))
	if st := status(e, "c1"); st.State != StateConforming {
		t.Fatalf("hold-down walk: state = %s, want conforming", st.State)
	}

	trs := e.Transitions(0)
	want := []State{StateAtRisk, StateViolated, StateRecovered, StateConforming}
	if len(trs) != len(want) {
		t.Fatalf("transitions = %d, want %d (%+v)", len(trs), len(want), trs)
	}
	for i, tr := range trs {
		if tr.To != want[i] || tr.Client != "c1" {
			t.Errorf("transition %d = %s->%s, want to %s", i, tr.From, tr.To, want[i])
		}
	}

	if d := counterDelta(t, metrics.CtrSLOTransitions, before); d != 4 {
		t.Errorf("transition counter delta = %d, want 4", d)
	}
	if d := counterDelta(t, metrics.CtrSLOViolations, before); d != 1 {
		t.Errorf("violation counter delta = %d, want 1", d)
	}
	if d := counterDelta(t, metrics.SLOClientViolations("c1"), before); d != 1 {
		t.Errorf("per-client violation counter delta = %d, want 1", d)
	}
	if d := counterDelta(t, metrics.CtrSLORecoveries, before); d != 1 {
		t.Errorf("recovery counter delta = %d, want 1", d)
	}
	if d := counterDelta(t, metrics.CtrAdaptationEffective, before); d != 1 {
		t.Errorf("effective counter delta = %d, want 1", d)
	}
	if d := counterDelta(t, metrics.CtrAdaptationIneffective, before); d != 0 {
		t.Errorf("ineffective counter delta = %d, want 0", d)
	}
}

func status(e *Engine, client string) ClientStatus {
	for _, st := range e.Status() {
		if st.Client == client {
			return st
		}
	}
	return ClientStatus{}
}

func TestAtRiskRelaxesWithoutViolation(t *testing.T) {
	e := NewEngine(testSpec())
	base := time.Unix(1000, 0)
	feed(e, "c1", base, 0.15, 4)
	e.Poll(base.Add(200 * time.Millisecond))
	if st := status(e, "c1"); st.State != StateAtRisk {
		t.Fatalf("state = %s, want at-risk", st.State)
	}
	// Burn drains below recoverBurn with no violation in between: back
	// to conforming directly, never through recovered.
	e.Poll(base.Add(3 * time.Second))
	if st := status(e, "c1"); st.State != StateConforming {
		t.Fatalf("state = %s, want conforming", st.State)
	}
	trs := e.Transitions(0)
	if len(trs) != 2 || trs[1].To != StateConforming {
		t.Fatalf("transitions = %+v", trs)
	}
}

func TestBlownRecoveryDeadlineScoresIneffective(t *testing.T) {
	before := metrics.Counters()
	e := NewEngine(testSpec())
	base := time.Unix(1000, 0)

	feed(e, "c1", base, 0.5, 8)
	e.Poll(base.Add(200 * time.Millisecond))
	if st := status(e, "c1"); st.State != StateViolated {
		t.Fatalf("state = %s, want violated", st.State)
	}
	// Keep it burning past the 4s recovery deadline.
	feed(e, "c1", base.Add(4*time.Second), 0.5, 8)
	e.Poll(base.Add(4500 * time.Millisecond))
	if d := counterDelta(t, metrics.CtrAdaptationIneffective, before); d != 1 {
		t.Fatalf("ineffective delta = %d, want 1", d)
	}
	// A second poll past the deadline must not double-score.
	feed(e, "c1", base.Add(5*time.Second), 0.5, 8)
	e.Poll(base.Add(5500 * time.Millisecond))
	if d := counterDelta(t, metrics.CtrAdaptationIneffective, before); d != 1 {
		t.Fatalf("ineffective delta after re-poll = %d, want 1 (double-scored)", d)
	}
	// Late recovery still counts as a recovery, but not as effective.
	e.Poll(base.Add(10 * time.Second))
	if st := status(e, "c1"); st.State != StateRecovered {
		t.Fatalf("state = %s, want recovered", st.State)
	}
	if d := counterDelta(t, metrics.CtrSLORecoveries, before); d != 1 {
		t.Errorf("recovery delta = %d, want 1", d)
	}
	if d := counterDelta(t, metrics.CtrAdaptationEffective, before); d != 0 {
		t.Errorf("effective delta = %d, want 0 (deadline was blown)", d)
	}
}

func TestViolationAttributionBundle(t *testing.T) {
	e := NewEngine(testSpec())

	// Retained flight-recorder traces ending at the violating client
	// become the exemplars.
	obs.SetTraceEnabled(true)
	defer func() {
		obs.SetTraceEnabled(false)
		obs.ResetFlight()
	}()
	obs.ResetFlight()
	slow := obs.MsgID("sender", 1)
	fast := obs.MsgID("sender", 2)
	other := obs.MsgID("sender", 3)
	obs.AppendHop(slow, "sender", obs.StagePublish)
	time.Sleep(2 * time.Millisecond)
	obs.AppendHop(slow, "c1", obs.StageDeliver)
	obs.AppendHop(fast, "sender", obs.StagePublish)
	obs.AppendHop(fast, "c1", obs.StageDeliver)
	obs.AppendHop(other, "sender", obs.StagePublish)
	obs.AppendHop(other, "c2", obs.StageDeliver)

	// The station's sample pushes c1's radio picture; the bundle keeps
	// the latest one.
	base := time.Unix(1000, 0)
	e.ObserveRadio("c1", RadioSnapshot{BS: "bs", SIRdB: 2, Tier: 3}, base)
	e.ObserveRadio("c1", RadioSnapshot{BS: "bs", SIRdB: 7.5, Power: 0.8, Distance: 60, Tier: 2}, base)
	feed(e, "c1", base, 0.5, 8)
	e.Poll(base.Add(200 * time.Millisecond))

	atts := e.Attributions("c1")
	if len(atts) != 1 {
		t.Fatalf("attributions = %d, want 1", len(atts))
	}
	a := atts[0]
	if a.Objective != ObjLoss || a.BurnShort < 2 {
		t.Errorf("attribution objective/burn = %s %.2f", a.Objective, a.BurnShort)
	}
	if want := (RadioSnapshot{BS: "bs", SIRdB: 7.5, Power: 0.8, Distance: 60, Tier: 2}); !a.RadioOK || a.Radio != want {
		t.Errorf("radio snapshot = %+v ok=%v, want %+v", a.Radio, a.RadioOK, want)
	}
	if len(a.Traces) != 2 {
		t.Fatalf("trace exemplars = %+v, want the 2 traces ending at c1", a.Traces)
	}
	if a.Traces[0].ID != slow {
		t.Errorf("worst exemplar = %016x, want the slow trace %016x", a.Traces[0].ID, slow)
	}
	for _, ex := range a.Traces {
		if ex.ID == other {
			t.Errorf("exemplar includes a trace that ended at another client")
		}
	}
}

// TestViolationAttachesTimelineCurves pins the attribution→timeline
// integration: with a process-global timeline enabled, a fresh
// violation bundles the client's own labeled series and the shared
// latency curve (and nothing unrelated); with no timeline the bundle
// stays curve-free.
func TestViolationAttachesTimelineCurves(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(990, 0))
	tl := timeline.New(timeline.Config{Window: time.Second, Retention: 32, Clock: clk})
	var lossG metrics.Gauge
	var lat metrics.Histogram
	var cpu metrics.Gauge
	tl.TrackGauge(`rtp_loss_fraction{client="c1"}`, &lossG)
	tl.TrackHistogram("e2e_latency_ns", &lat)
	tl.TrackGauge("cpu_load", &cpu) // unrelated: must not attach
	for i := 0; i < 5; i++ {
		lossG.Set(0.1 * float64(i))
		lat.Observe(int64(time.Millisecond))
		clk.Advance(time.Second)
		tl.SampleNow()
	}
	timeline.Enable(tl)
	defer timeline.Disable()

	e := NewEngine(testSpec())
	base := time.Unix(1000, 0)
	feed(e, "c1", base, 0.5, 8)
	e.Poll(base.Add(200 * time.Millisecond))

	atts := e.Attributions("c1")
	if len(atts) != 1 {
		t.Fatalf("attributions = %d, want 1", len(atts))
	}
	curves := atts[0].Curves
	names := make(map[string]int)
	for _, sd := range curves {
		names[sd.Name] = len(sd.Points)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %v, want the client gauge and the latency histogram", names)
	}
	if n := names[`rtp_loss_fraction{client="c1"}`]; n != 5 {
		t.Errorf("client gauge curve windows = %d, want 5", n)
	}
	if n := names["e2e_latency_ns"]; n != 5 {
		t.Errorf("latency curve windows = %d, want 5", n)
	}

	// The curves render in the debug dump.
	var sb strings.Builder
	e.WriteSummary(&sb, "c1")
	if !strings.Contains(sb.String(), "curve rtp_loss_fraction") {
		t.Errorf("debug dump missing curve lines:\n%s", sb.String())
	}

	// Without a timeline the bundle stays curve-free.
	timeline.Disable()
	e2 := NewEngine(testSpec())
	feed(e2, "c1", base, 0.5, 8)
	e2.Poll(base.Add(200 * time.Millisecond))
	if got := e2.Attributions("c1"); len(got) != 1 || got[0].Curves != nil {
		t.Errorf("curves without a timeline = %+v, want none", got)
	}
}

func TestTransitionLogBounded(t *testing.T) {
	e := NewEngine(testSpec())
	base := time.Unix(1000, 0)
	// Oscillate conforming <-> at-risk far past the log bound.
	for i := 0; i < maxTransitions+40; i += 2 {
		at := base.Add(time.Duration(i) * 8 * time.Second)
		feed(e, "c1", at, 0.15, 4)
		e.Poll(at.Add(200 * time.Millisecond))
		e.Poll(at.Add(6 * time.Second)) // drained: back to conforming
	}
	if n := len(e.Transitions(0)); n != maxTransitions {
		t.Fatalf("transition log = %d entries, want capped at %d", n, maxTransitions)
	}
	if got := e.Transitions(4); len(got) != 4 {
		t.Fatalf("Transitions(4) = %d entries", len(got))
	}
}

func TestWriteSummaryRendersStateAndTransitions(t *testing.T) {
	e := NewEngine(testSpec())
	base := time.Unix(1000, 0)
	feed(e, "c1", base, 0.5, 8)
	e.Poll(base.Add(200 * time.Millisecond))

	var sb strings.Builder
	e.WriteSummary(&sb, "")
	out := sb.String()
	for _, want := range []string{"c1", "violated", "conforming -> violated", "violation"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Client filter drops other clients.
	feed(e, "c2", base, 0.01, 1)
	sb.Reset()
	e.WriteSummary(&sb, "c2")
	if strings.Contains(sb.String(), "conforming -> violated") {
		t.Errorf("filtered summary leaked c1 transitions:\n%s", sb.String())
	}
}

// TestPollTransitionsInClientOrder pins Poll's walk to client ID order:
// two clients violating in one poll reach the transition log and the
// session record as a then b on every fresh engine, whatever order they
// were first observed in.
func TestPollTransitionsInClientOrder(t *testing.T) {
	base := time.Unix(1000, 0)
	for run := 0; run < 32; run++ {
		var buf bytes.Buffer
		r := obs.NewRecorder(&buf, "test")
		prev := obs.InstallRecorder(r)
		e := NewEngine(testSpec())
		feed(e, "b", base, 0.5, 8)
		feed(e, "a", base, 0.5, 8)
		e.Poll(base.Add(200 * time.Millisecond))
		obs.InstallRecorder(prev)
		if err := r.Close(); err != nil {
			t.Fatalf("recorder close: %v", err)
		}

		var logged []string
		for _, tr := range e.Transitions(0) {
			logged = append(logged, tr.Client+":"+tr.To.String())
		}
		sess, err := obs.LoadSession(&buf)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		var recorded []string
		for _, ev := range sess.Events {
			if ev.Type == obs.RecTypeSLO {
				recorded = append(recorded, ev.Client+":"+ev.Detail)
			}
		}
		if want := "a:violated b:violated"; strings.Join(logged, " ") != want {
			t.Fatalf("run %d: transition log %v, want %s", run, logged, want)
		}
		if want := "a:conforming->violated b:conforming->violated"; strings.Join(recorded, " ") != want {
			t.Fatalf("run %d: recorded slo events %v, want %s", run, recorded, want)
		}
	}
}

func TestSLOTransitionsAppendToSessionRecord(t *testing.T) {
	var buf bytes.Buffer
	r := obs.NewRecorder(&buf, "test")
	prev := obs.InstallRecorder(r)
	defer func() {
		obs.InstallRecorder(prev)
		r.Close()
	}()

	e := NewEngine(testSpec())
	base := time.Unix(1000, 0)
	feed(e, "c1", base, 0.5, 8)
	e.Poll(base.Add(200 * time.Millisecond))

	obs.InstallRecorder(prev)
	if err := r.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	sess, err := obs.LoadSession(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var slos int
	for _, ev := range sess.Events {
		if ev.Type == obs.RecTypeSLO {
			slos++
			if ev.Client != "c1" || !strings.Contains(ev.Detail, "violated") {
				t.Errorf("slo record event = %+v", ev)
			}
		}
	}
	if slos != 1 {
		t.Fatalf("recorded slo transitions = %d, want 1", slos)
	}
}
