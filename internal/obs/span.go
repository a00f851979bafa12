package obs

import "adaptiveqos/internal/metrics"

// Stage identifies one pipeline stage of a message's journey, in
// delivery-path order, plus repair (its histogram records stall-to-fill
// latency, not a span in the live path) and the flight recorder's
// transmit and archive, appended so earlier ordinals stay stable.
type Stage uint8

// Pipeline stages (DESIGN.md §8, §11).
const (
	StagePublish Stage = iota
	StageQueue
	StageMatch
	StageTransform
	StageFragment
	StageRTP
	StageReorder
	StageDeliver
	StageRepair
	StageTransmit
	StageArchive
	numStages
)

// stageNames are the exported stage labels (metric names, event log,
// /debug/qos); DESIGN.md §8 documents them.
var stageNames = [numStages]string{
	"publish", "queue", "match", "transform", "fragment", "rtp", "reorder", "deliver", "repair",
	"transmit", "archive",
}

// String returns the stage label.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "stage(?)"
}

// Stages lists every pipeline stage in order (exposition, tests).
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// stageHists are the per-stage latency histograms, registered up
// front so the disabled path never touches the registry mutex.
var stageHists = func() [numStages]*metrics.Histogram {
	var hs [numStages]*metrics.Histogram
	for i := Stage(0); i < numStages; i++ {
		hs[i] = metrics.H(`pipeline_stage_latency_ns{stage="` + i.String() + `"}`)
	}
	return hs
}()

// StageHistogram returns the latency histogram for one stage.
func StageHistogram(s Stage) *metrics.Histogram { return stageHists[s] }

// Span measures one stage of one message.  Disabled, StartStage
// returns the zero Span, whose methods no-op, so call sites do not
// branch on the flag themselves.
type Span struct {
	start int64 // UnixNano at start; 0 means disabled
	id    uint64
	stage Stage
}

// StartStage opens a span for stage s of message id.  When
// instrumentation is disabled the returned span is inert.
func StartStage(id uint64, s Stage) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{start: nowNS(), id: id, stage: s}
}

// Active reports whether the span is recording: call sites skip
// building a detail string for EndErr, Drop or Note when it is not.
func (sp Span) Active() bool { return sp.start != 0 }

// End records the stage latency into the stage histogram.  Ordinary
// completions stay out of the event log, so a busy pipeline's span
// costs two clock reads and one atomic add.  Safe on the zero Span.
func (sp Span) End() {
	if sp.start == 0 {
		return
	}
	d := nowNS() - sp.start
	stageHists[sp.stage].Observe(d)
	if r := rec.Load(); r != nil {
		r.Append(RecEvent{Type: RecTypeSpan, AtNS: sp.start,
			Msg: TraceHex(sp.id), Stage: sp.stage.String(), NS: d})
	}
}

// EndErr records the span with a drop/rejection annotation instead of
// a plain completion; the latency still feeds the stage histogram.
func (sp Span) EndErr(detail string) {
	if sp.start == 0 {
		return
	}
	d := nowNS() - sp.start
	stageHists[sp.stage].Observe(d)
	logEvent(Event{At: sp.start, MsgID: sp.id, NS: d, Detail: detail, Stage: sp.stage, Kind: EventDrop}, true)
}

// Drop records a discrete pipeline event — a message dropped,
// rejected or degraded at a stage — without timing it.  No-op (and
// allocation-free) when instrumentation is disabled.
func Drop(id uint64, s Stage, detail string) {
	if enabled.Load() {
		logEvent(Event{At: nowNS(), MsgID: id, Detail: detail, Stage: s, Kind: EventDrop}, false)
	}
}

// Note records an informational pipeline event (e.g. a transform
// performed, a reorder-window skip) at a stage.
func Note(id uint64, s Stage, detail string) {
	if enabled.Load() {
		logEvent(Event{At: nowNS(), MsgID: id, Detail: detail, Stage: s, Kind: EventNote}, false)
	}
}
