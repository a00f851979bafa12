package obs

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// Cross-node flight recorder (DESIGN.md §11): nodes append hops — node,
// stage, µs since the trace's origin — to the event log under the
// message's MsgID, and a wire extension carries them to the next node.
// A trace first seen off the wire is anchored so its last wire hop is
// the receive instant: no clock synchronization is assumed.

// traceOn is the flight recorder's switch, apart from the span flag:
// the trace extension adds bytes to every datagram, so operators opt
// into each separately.  Off, every entry point is one atomic load.
var traceOn atomic.Bool

// SetTraceEnabled turns wire trace propagation and hop recording on or
// off at runtime.
func SetTraceEnabled(on bool) { traceOn.Store(on) }

// TraceEnabled reports whether the flight recorder is on.
func TraceEnabled() bool { return traceOn.Load() }

// Hop is one flight-recorder record: a named node reached a pipeline
// stage DeltaUS microseconds after the trace's origin.
type Hop struct {
	Node    string
	Stage   Stage
	DeltaUS uint32
}

// Flight-recorder bounds: a trace keeps maxTraceHops hops (past it
// further hops are counted and dropped) and the wire carries its
// earliest maxWireHops, node names cut to maxWireNode bytes; a blob
// over maxWireBlob bytes is rejected unread.
const (
	maxTraceHops = 64
	maxWireHops  = 32
	maxWireNode  = 255
	maxWireBlob  = 4096
)

var (
	ctrHopsDropped = metrics.C(metrics.CtrTraceHopsDropped)
	ctrWireMerged  = metrics.C(metrics.CtrTraceWireMerged)
	ctrWireBad     = metrics.C(metrics.CtrTraceWireBad)

	e2eDeliverHist   = metrics.H(`e2e_latency_ns{path="publish_to_deliver"}`)
	e2eTransformHist = metrics.H(`e2e_latency_ns{path="publish_to_transform"}`)
	e2eHopCountHist  = metrics.H(`e2e_hop_count`)
)

// AppendHop records that node reached stage for trace id.  Deliver and
// transform hops on traces whose first hop is a publish feed the
// aqos_e2e_* cross-hop histograms.
func AppendHop(id uint64, node string, stage Stage) {
	if !traceOn.Load() || id == 0 {
		return
	}
	now := nowNS()
	elog.mu.Lock()
	t := elog.traceLocked(id, now)
	if t.count >= maxTraceHops {
		elog.mu.Unlock()
		ctrHopsDropped.Inc()
		return
	}
	d := max((now-t.origin)/1000, 0)
	t = elog.hopLocked(id, t, Hop{Node: node, Stage: stage, DeltaUS: uint32(d)}, now)
	fromPublish := t.count > 1 && elog.recs[t.first%logCapacity].Stage == StagePublish
	elog.mu.Unlock()

	if fromPublish {
		switch stage {
		case StageDeliver:
			e2eDeliverHist.Observe(d * 1000)
			e2eHopCountHist.Observe(int64(t.count))
		case StageTransform:
			e2eTransformHist.Observe(d * 1000)
		}
	}
}

// The wire extension (DESIGN.md §11), big-endian:
//
//	traceID u64 | nhops u8 | nhops × { stage u8, deltaUS u32, nodeLen u8, node }

// AppendWireTrace appends the trace's earliest maxWireHops hops to dst,
// the publish root the receivers' e2e histograms need first; dst is
// unchanged when the recorder is off or the trace is not retained.
func AppendWireTrace(dst []byte, id uint64) []byte {
	if !traceOn.Load() || id == 0 {
		return dst
	}
	var buf [maxTraceHops]Hop
	hops := buf[:0]
	elog.mu.Lock()
	if t, ok := elog.traces[id]; ok {
		hops = elog.hopsLocked(hops, t)
	}
	elog.mu.Unlock()
	if len(hops) == 0 {
		return dst
	}
	hops = hops[:min(len(hops), maxWireHops)]
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(len(hops)))
	for _, h := range hops {
		node := h.Node[:min(len(h.Node), maxWireNode)]
		dst = append(dst, byte(h.Stage))
		dst = binary.BigEndian.AppendUint32(dst, h.DeltaUS)
		dst = append(dst, byte(len(node)))
		dst = append(dst, node...)
	}
	return dst
}

// wireHop is one hop as a blob carries it, its node still in the blob.
type wireHop struct {
	node  []byte
	delta uint32
	stage Stage
}

// parseWireTrace checks a wire extension and appends its hops to dst.
func parseWireTrace(dst []wireHop, blob []byte) (uint64, []wireHop, bool) {
	if len(blob) < 9 || len(blob) > maxWireBlob || blob[8] > maxWireHops {
		return 0, nil, false
	}
	off := 9
	for i := 0; i < int(blob[8]); i++ {
		if len(blob)-off < 6 || len(blob)-off-6 < int(blob[off+5]) {
			return 0, nil, false
		}
		end := off + 6 + int(blob[off+5])
		dst = append(dst, wireHop{node: blob[off+6 : end], delta: binary.BigEndian.Uint32(blob[off+1:]), stage: Stage(blob[off])})
		off = end
	}
	return binary.BigEndian.Uint64(blob), dst, off == len(blob)
}

// MergeWireTrace appends a received wire extension's hops to its trace
// but for those it holds by (node, stage, deltaUS): the sim shares one
// log among nodes, and every fragment carries the extension.  A
// malformed blob is counted and dropped; the trace ID is returned.
func MergeWireTrace(blob []byte) (uint64, bool) {
	if !traceOn.Load() {
		return 0, false
	}
	var buf [maxWireHops]wireHop
	id, hops, ok := parseWireTrace(buf[:0], blob)
	if !ok {
		ctrWireBad.Inc()
		return 0, false
	}
	if id == 0 || len(hops) == 0 {
		return id, true
	}
	now := nowNS()
	anchor := now - int64(hops[len(hops)-1].delta)*1000
	elog.mu.Lock()
	for _, h := range hops {
		t := elog.traceLocked(id, anchor)
		if elog.holdsLocked(t, h) {
			continue
		}
		if t.count >= maxTraceHops {
			ctrHopsDropped.Inc()
			break
		}
		elog.hopLocked(id, t, Hop{Node: string(h.node), Stage: h.stage, DeltaUS: h.delta}, now)
	}
	elog.mu.Unlock()
	ctrWireMerged.Inc()
	return id, true
}

// TraceSummary describes one retained trace for listings and sampling.
type TraceSummary struct {
	ID     uint64
	Hops   int
	SpanUS uint32 // last hop delta minus first hop delta
	First  Hop
	Last   Hop
}

// Complete reports whether the trace spans publish to deliver — the
// property collab's sampled-timeline summary looks for.
func (t TraceSummary) Complete() bool {
	return t.First.Stage == StagePublish && t.Last.Stage == StageDeliver
}

// summarize describes trace id from its hops, which it sorts into
// timeline order.
func summarize(id uint64, hops []Hop) TraceSummary {
	timelineOrder(hops)
	first, last := hops[0], hops[len(hops)-1]
	return TraceSummary{ID: id, Hops: len(hops), SpanUS: last.DeltaUS - first.DeltaUS, First: first, Last: last}
}

// Timeline returns the trace's hops in timeline order.
func Timeline(id uint64) ([]Hop, bool) {
	hops := Hops(id)
	return timelineOrder(hops), hops != nil
}

// timelineOrder sorts hops by delta, stable on append order for ties.
func timelineOrder(hops []Hop) []Hop {
	slices.SortStableFunc(hops, func(a, b Hop) int { return cmp.Compare(a.DeltaUS, b.DeltaUS) })
	return hops
}
