package metrics

import (
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter, safe for
// concurrent use.  Hot paths hold a *Counter and pay one atomic add per
// event; the registry (registry.go) is only consulted at lookup time.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Names of the dispatch fast-path counters (see DESIGN.md "Dispatch
// fast path").  Declared here so instrumented packages and tools agree
// on spelling.
const (
	CtrSelectorCacheHit  = "selector.cache.hit"
	CtrSelectorCacheMiss = "selector.cache.miss"
	CtrFlattenReuse      = "profile.flatten.reuse"
	CtrFlattenBuild      = "profile.flatten.build"
	CtrEncodeBufReuse    = "message.encodebuf.reuse"
	CtrEncodeBufAlloc    = "message.encodebuf.alloc"
	// Datagrams a receive path (client kernel, coordinator kernel, the
	// base station's wired and radio loops) could not unwrap or parse: a
	// corrupt or hostile peer shows here.
	CtrDecodeErrors = "message.decode.errors"
	// Dispatch-pool counters (exposed as aqos_dispatch_*).  Only the
	// benchmark's ladder runs a dispatch.Pool, so they are created by
	// dispatch.NewPool, not pre-touched here: a program that runs no
	// pool exports none of them.
	CtrDispatchBatches    = "dispatch.batches"
	CtrDispatchJobs       = "dispatch.jobs"
	CtrDispatchQueueDrops = "dispatch.queue.drops"
	// Shares whose sketch tier the base station served as text: the
	// share is no image, or carries no sketch that passes its header
	// check (an old record, a hostile peer).  Never a decode.
	CtrSketchFallbacks = "basestation.sketch.fallbacks"
	// Gap-repair counters (core.Kernel.Poll, DESIGN.md §10): NACK-style
	// history requests issued, gaps closed by a replay, and gaps
	// abandoned after the retry budget (exposed as aqos_repair_*).
	CtrRepairRequests  = "repair.requests"
	CtrRepairSuccess   = "repair.success"
	CtrRepairAbandoned = "repair.abandoned"
	// Coordinator side: archived frames re-sent in answer to NACKs.
	// Divided by the frames the links dropped it is the repair
	// amplification (1 = every replayed frame was a lost one).
	CtrRepairReplayedFrames = "repair.replayed.frames"
	// Duplicate frames dropped before the session archive instead of
	// being committed as second events: a frame the coordinator's index
	// already holds, or one at or below what the cap has trimmed.
	CtrArchiveDupDrops = "archive.duplicate.drops"
	// Flight-recorder counters (DESIGN.md §11): hops dropped past the
	// per-trace cap, wire trace extensions merged on receive, and
	// malformed extensions rejected.
	CtrTraceHopsDropped = "trace.hops.dropped"
	CtrTraceWireMerged  = "trace.wire.merged"
	CtrTraceWireBad     = "trace.wire.bad"
	// Match-index counters (internal/matchindex, DESIGN.md §12):
	// counting-match candidates scanned, brute-force fallback
	// evaluations (full-scan plans, disabled-index scans and
	// per-candidate residue checks), and client reindex events
	// (exposed as aqos_match_index_*).
	CtrMatchIndexCandidates = "match.index.candidates"
	CtrMatchIndexFallback   = "match.index.fallback"
	CtrMatchIndexReindex    = "match.index.reindex"
	// SLO conformance counters (internal/slo, DESIGN.md §13): state
	// transitions, entries into the violated state, violated→recovered
	// recoveries, and the adaptation-effectiveness verdicts (did the
	// adaptation restore conformance within the recovery deadline).
	CtrSLOTransitions        = "slo.transitions"
	CtrSLOViolations         = "slo.violations"
	CtrSLORecoveries         = "slo.recoveries"
	CtrAdaptationEffective   = "slo.adaptation.effective"
	CtrAdaptationIneffective = "slo.adaptation.ineffective"
	// Session-recorder counters (internal/obs record.go, DESIGN.md
	// §13): events written into the JSONL stream and events offered
	// after the recorder closed.
	CtrRecordAppended = "record.appended"
	CtrRecordDropped  = "record.dropped"
	// Gauge-cardinality cap (cardinality.go, DESIGN.md §8): sets against
	// a labeled gauge family already at its child limit, folded into the
	// family's min/mean/max overflow aggregate instead of registering.
	CtrGaugeCardinalityDropped = "gauge.cardinality.dropped"
)

// SLOClientViolations names the per-client violation counter (exposed
// as aqos_slo_client_violations{client="..."}); the client ID is
// escaped so hostile names cannot break the exposition format.
func SLOClientViolations(client string) string {
	return `slo.client.violations{client="` + EscapeLabel(client) + `"}`
}

// RuleFired names the per-rule inference firing counter (exposed as
// aqos_inference_rule_fired{rule="..."}); inference.New pre-touches
// the family for every rule, not here.
func RuleFired(rule string) string {
	return `inference.rule.fired{rule="` + EscapeLabel(rule) + `"}`
}

// EscapeLabel escapes a label value per the Prometheus text
// exposition format: backslash, double-quote and newline become \\,
// \" and \n.  Every metric name that embeds a runtime string in a
// label (client IDs, sender names, hosts — some arrive off the wire)
// must pass it through here, or a hostile name could split a sample
// line or forge extra labels.  Values without escapable bytes are
// returned unchanged, allocation-free.
func EscapeLabel(v string) string {
	i := 0
	for ; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			break
		}
	}
	if i == len(v) {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 8)
	sb.WriteString(v[:i])
	for ; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// UnescapeLabel reverses EscapeLabel (exposition-format parsers and
// round-trip tests).
func UnescapeLabel(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v))
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default: // unknown escape: keep both bytes
				sb.WriteByte(c)
				sb.WriteByte(v[i])
			}
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// defaultCounterNames lists every unlabeled counter family declared
// above but the dispatch pool's.  init registers them all, so each
// aqos_* counter is present (at zero) in /metrics from process start
// instead of appearing only after its first event.  Keep in sync with the constants;
// TestDefaultCounterFamiliesPreTouched guards the list.
var defaultCounterNames = []string{
	CtrSelectorCacheHit, CtrSelectorCacheMiss,
	CtrFlattenReuse, CtrFlattenBuild,
	CtrEncodeBufReuse, CtrEncodeBufAlloc, CtrDecodeErrors,
	CtrSketchFallbacks,
	CtrRepairRequests, CtrRepairSuccess, CtrRepairAbandoned, CtrRepairReplayedFrames,
	CtrArchiveDupDrops,
	CtrTraceHopsDropped, CtrTraceWireMerged, CtrTraceWireBad,
	CtrMatchIndexCandidates, CtrMatchIndexFallback, CtrMatchIndexReindex,
	CtrSLOTransitions, CtrSLOViolations, CtrSLORecoveries,
	CtrAdaptationEffective, CtrAdaptationIneffective,
	CtrRecordAppended, CtrRecordDropped,
	CtrGaugeCardinalityDropped,
}

func init() {
	for _, name := range defaultCounterNames {
		C(name)
	}
}
