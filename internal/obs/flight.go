package obs

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// Cross-node flight recorder (DESIGN.md §11).
//
// The span machinery times stages inside one process; the flight
// recorder stitches a message's journey ACROSS nodes into one
// timeline.  Each node appends compact hop records — node name,
// pipeline stage, delta-timestamp — to a bounded per-trace entry keyed
// by the message's trace identity (MsgID).  The envelope layer
// marshals the accumulated hops into an optional wire extension, so a
// receiving node merges the sender's hops and keeps appending instead
// of starting a fresh trace.  /debug/trace renders the merged
// timeline; the aqos_e2e_* histograms aggregate cross-hop latencies.
//
// Delta-timestamps are monotonic within a node: hop deltas are
// microseconds since the trace's origin instant as known locally.
// When a wire context seeds a previously unseen trace, the local
// anchor is back-computed so the last wire hop coincides with the
// receive instant (wire latency between the last remote hop and local
// receipt is folded into the next local hop's delta) — no clock
// synchronization is assumed.

// traceOn is the wire-propagation switch, independent of the span
// instrumentation flag: spans are per-process and cheap, the trace
// extension adds bytes to every datagram, so operators opt into each
// separately.  The disabled path is one atomic load, zero allocations.
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

// Flight-recorder bounds.  A trace entry holds at most maxTraceHops
// hops (a busy fan-out appends one match/deliver pair per receiving
// client; past the cap further hops are counted and dropped), the wire
// extension carries at most maxWireHops of them, and the store retains
// maxTraces entries, evicting oldest-created first.
const (
	maxTraceHops = 64
	maxWireHops  = 32
	maxTraces    = 1024
	// maxWireNode bounds a node name on the wire (u8 length field).
	maxWireNode = 255
	// maxWireBlob bounds a whole marshaled trace extension; decoders
	// reject larger claims so a corrupt length cannot drive allocation.
	maxWireBlob = 4096
)

// ErrBadTrace reports a malformed wire trace extension.
var ErrBadTrace = errors.New("obs: malformed trace extension")

var (
	ctrHopsDropped = metrics.C(metrics.CtrTraceHopsDropped)
	ctrWireMerged  = metrics.C(metrics.CtrTraceWireMerged)
	ctrWireBad     = metrics.C(metrics.CtrTraceWireBad)
)

// flightEntry is one trace's hop list plus the local UnixNano instant
// corresponding to delta zero.
type flightEntry struct {
	origin int64
	hops   []Hop
}

// flightStore is the bounded process-global trace store.  Only the
// enabled path reaches it, so one mutex suffices (contention is a few
// appends per message, not per byte).
type flightStore struct {
	mu      sync.Mutex
	entries map[uint64]*flightEntry
	order   []uint64 // creation order, oldest first (eviction)
}

var flights = flightStore{entries: make(map[uint64]*flightEntry)}

// getOrCreateLocked returns the entry for id, creating it with the
// given origin (evicting the oldest trace at capacity).
func (s *flightStore) getOrCreateLocked(id uint64, origin int64) *flightEntry {
	e, ok := s.entries[id]
	if ok {
		return e
	}
	if len(s.entries) >= maxTraces {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, oldest)
	}
	e = &flightEntry{origin: origin}
	s.entries[id] = e
	s.order = append(s.order, id)
	return e
}

// e2e cross-hop histograms, registered up front like the stage set.
var (
	e2eDeliverHist   = metrics.H(`e2e_latency_ns{path="publish_to_deliver"}`)
	e2eTransformHist = metrics.H(`e2e_latency_ns{path="publish_to_transform"}`)
	e2eHopCountHist  = metrics.H(`e2e_hop_count`)
)

// AppendHop records that node reached stage for trace id.  No-op (and
// allocation-free) when the flight recorder is disabled.  Deliver and
// transform hops on traces whose first hop is a publish feed the
// aqos_e2e_* cross-hop histograms.
func AppendHop(id uint64, node string, stage Stage) {
	if !traceOn.Load() || id == 0 {
		return
	}
	now := nowNS()
	flights.mu.Lock()
	e := flights.getOrCreateLocked(id, now)
	if len(e.hops) >= maxTraceHops {
		flights.mu.Unlock()
		ctrHopsDropped.Inc()
		return
	}
	d := (now - e.origin) / 1000
	if d < 0 {
		d = 0
	}
	e.hops = append(e.hops, Hop{Node: node, Stage: stage, DeltaUS: uint32(d)})
	fromPublish := len(e.hops) > 1 && e.hops[0].Stage == StagePublish
	nhops := len(e.hops)
	flights.mu.Unlock()

	if fromPublish {
		switch stage {
		case StageDeliver:
			e2eDeliverHist.Observe(d * 1000)
			e2eHopCountHist.Observe(int64(nhops))
		case StageTransform:
			e2eTransformHist.Observe(d * 1000)
		}
	}
}

// MergeHops folds hop records received off the wire into the trace's
// entry, deduplicating records already present (the sim runs several
// nodes over one process-global store, and fragmented messages carry
// the extension on every datagram).  A previously unseen trace is
// anchored so the last wire hop coincides with now.
func MergeHops(id uint64, hops []Hop) {
	if !traceOn.Load() || id == 0 || len(hops) == 0 {
		return
	}
	now := nowNS()
	anchor := now - int64(hops[len(hops)-1].DeltaUS)*1000
	flights.mu.Lock()
	e := flights.getOrCreateLocked(id, anchor)
	for _, h := range hops {
		dup := false
		for _, have := range e.hops {
			if have.Node == h.Node && have.Stage == h.Stage && have.DeltaUS == h.DeltaUS {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if len(e.hops) >= maxTraceHops {
			ctrHopsDropped.Inc()
			break
		}
		e.hops = append(e.hops, h)
	}
	flights.mu.Unlock()
	ctrWireMerged.Inc()
}

// Hops returns a snapshot of the trace's hop records in recorded
// order, or nil when the trace is unknown.
func Hops(id uint64) []Hop {
	flights.mu.Lock()
	defer flights.mu.Unlock()
	e, ok := flights.entries[id]
	if !ok {
		return nil
	}
	return append([]Hop(nil), e.hops...)
}

// ResetFlight clears the flight-recorder store (tests, debugging).
func ResetFlight() {
	flights.mu.Lock()
	flights.entries = make(map[uint64]*flightEntry)
	flights.order = nil
	flights.mu.Unlock()
}

// --- Wire codec ---
//
// Trace extension blob (all multi-byte integers big-endian):
//
//	traceID uint64
//	nhops   uint8   (≤ maxWireHops)
//	hops    nhops × { stage uint8, deltaUS uint32, nodeLen uint8, node }
//
// The blob rides the envelope layer behind its own length prefix
// (message.Envelope tags 0x02/0x03), so frames and fragments are
// byte-identical to the untraced format after the extension is
// stripped — old frames decode unchanged, and receivers with tracing
// disabled skip the blob without parsing it.

// AppendWireTrace marshals the trace's accumulated hops (capped at
// maxWireHops, earliest first), appending to dst.  It returns dst
// unchanged when the recorder is disabled or the trace has no hops.
func AppendWireTrace(dst []byte, id uint64) []byte {
	if !traceOn.Load() || id == 0 {
		return dst
	}
	hops := Hops(id)
	if len(hops) == 0 {
		return dst
	}
	if len(hops) > maxWireHops {
		hops = hops[:maxWireHops]
	}
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(len(hops)))
	for _, h := range hops {
		node := h.Node
		if len(node) > maxWireNode {
			node = node[:maxWireNode]
		}
		dst = append(dst, byte(h.Stage))
		dst = binary.BigEndian.AppendUint32(dst, h.DeltaUS)
		dst = append(dst, byte(len(node)))
		dst = append(dst, node...)
	}
	return dst
}

// UnmarshalWireTrace parses a trace extension blob into its trace ID
// and hop records.
func UnmarshalWireTrace(blob []byte) (uint64, []Hop, error) {
	if len(blob) < 9 || len(blob) > maxWireBlob {
		return 0, nil, ErrBadTrace
	}
	id := binary.BigEndian.Uint64(blob)
	n := int(blob[8])
	if n > maxWireHops {
		return 0, nil, ErrBadTrace
	}
	off := 9
	hops := make([]Hop, 0, n)
	for i := 0; i < n; i++ {
		if len(blob)-off < 6 {
			return 0, nil, ErrBadTrace
		}
		stage := Stage(blob[off])
		delta := binary.BigEndian.Uint32(blob[off+1:])
		nodeLen := int(blob[off+5])
		off += 6
		if len(blob)-off < nodeLen {
			return 0, nil, ErrBadTrace
		}
		hops = append(hops, Hop{Node: string(blob[off : off+nodeLen]), Stage: stage, DeltaUS: delta})
		off += nodeLen
	}
	if off != len(blob) {
		return 0, nil, ErrBadTrace
	}
	return id, hops, nil
}

// MergeWireTrace parses a received trace extension and merges its hops
// into the store.  Malformed blobs are counted and dropped — the
// observability layer must never break delivery.  The trace ID is
// returned so envelope-layer callers can attribute follow-on hops
// (e.g. reassembly completion) without decoding the frame.
func MergeWireTrace(blob []byte) (uint64, bool) {
	if !traceOn.Load() {
		return 0, false
	}
	id, hops, err := UnmarshalWireTrace(blob)
	if err != nil {
		ctrWireBad.Inc()
		return 0, false
	}
	MergeHops(id, hops)
	return id, true
}

// --- Timeline reconstruction ---

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

// TraceSummaries lists up to max retained traces, newest-created first
// (max <= 0 returns all).  Hops within each summary follow timeline
// order.
func TraceSummaries(max int) []TraceSummary {
	flights.mu.Lock()
	defer flights.mu.Unlock()
	out := make([]TraceSummary, 0, len(flights.order))
	for i := len(flights.order) - 1; i >= 0; i-- {
		if max > 0 && len(out) >= max {
			break
		}
		id := flights.order[i]
		e, ok := flights.entries[id]
		if !ok || len(e.hops) == 0 {
			continue
		}
		hops := timelineOrder(e.hops)
		out = append(out, TraceSummary{
			ID:     id,
			Hops:   len(hops),
			SpanUS: hops[len(hops)-1].DeltaUS - hops[0].DeltaUS,
			First:  hops[0],
			Last:   hops[len(hops)-1],
		})
	}
	return out
}

// Timeline returns the trace's hops sorted into timeline order (by
// delta, stable on append order for ties).
func Timeline(id uint64) ([]Hop, bool) {
	hops := Hops(id)
	if hops == nil {
		return nil, false
	}
	return timelineOrder(hops), true
}

func timelineOrder(hops []Hop) []Hop {
	out := append([]Hop(nil), hops...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].DeltaUS < out[j].DeltaUS })
	return out
}
