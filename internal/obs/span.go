package obs

import "adaptiveqos/internal/metrics"

// Stage identifies one pipeline stage of a message's journey from
// publisher to client delivery.  The set mirrors the delivery path:
// publish → dispatch-queue wait → selector match → capability
// transform → fragmentation → RTP send → reorder/release → client
// delivery, plus the out-of-band repair stage (gap detection, NACK
// retries and replay absorption; its histogram records stall-to-fill
// latency rather than a span inside the live path).
type Stage uint8

// Pipeline stages, in pipeline order.  StageTransmit (datagrams handed
// to a transmit adapter) and StageArchive (a coordinator committing a
// frame to session history) were added with the flight recorder
// (DESIGN.md §11) and sit after the original set so existing stage
// ordinals stay stable.
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

// Span measures one stage of one message.  It is a value type: the
// disabled path returns the zero Span (one atomic flag load, no
// allocation) and End on a zero Span is a no-op, so call sites do not
// branch on the enabled flag themselves.
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

// Active reports whether the span is recording.  Call sites use it to
// skip building dynamic detail strings (which would allocate) before
// EndErr/Drop/Note when instrumentation is off.
func (sp Span) Active() bool { return sp.start != 0 }

// End records the stage latency into the stage histogram.  Ordinary
// completions stay out of the ring-buffer trace log (it is reserved
// for drops, rejections and transforms), so a busy pipeline's span
// cost is two clock reads and one atomic add.  Safe on the zero Span.
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
	events.add(Event{
		At:     sp.start,
		MsgID:  sp.id,
		Stage:  sp.stage,
		Kind:   EventDrop,
		NS:     d,
		Detail: detail,
	})
	if r := rec.Load(); r != nil {
		r.Append(RecEvent{Type: RecTypeSpan, AtNS: sp.start,
			Msg: TraceHex(sp.id), Stage: sp.stage.String(), NS: d, Detail: detail})
	}
}

// Drop records a discrete pipeline event — a message dropped,
// rejected or degraded at a stage — without timing it.  No-op (and
// allocation-free) when instrumentation is disabled.
func Drop(id uint64, s Stage, detail string) {
	if !enabled.Load() {
		return
	}
	at := nowNS()
	events.add(Event{
		At:     at,
		MsgID:  id,
		Stage:  s,
		Kind:   EventDrop,
		Detail: detail,
	})
	if r := rec.Load(); r != nil {
		r.Append(RecEvent{Type: RecTypeNote, AtNS: at,
			Msg: TraceHex(id), Stage: s.String(), Detail: "drop: " + detail})
	}
}

// Note records an informational pipeline event (e.g. a transform
// performed, a reorder-window skip) at a stage.
func Note(id uint64, s Stage, detail string) {
	if !enabled.Load() {
		return
	}
	at := nowNS()
	events.add(Event{
		At:     at,
		MsgID:  id,
		Stage:  s,
		Kind:   EventNote,
		Detail: detail,
	})
	if r := rec.Load(); r != nil {
		r.Append(RecEvent{Type: RecTypeNote, AtNS: at,
			Msg: TraceHex(id), Stage: s.String(), Detail: detail})
	}
}
