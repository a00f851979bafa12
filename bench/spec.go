package main

import "time"

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and per-layer metric names.  BENCHMARK.json at the
// repository root declares the same names for the driver; the package
// test fails when the two drift apart.

// Run shape, identical on every commit.
const (
	defaultSeconds = 10 // timed-phase length when -seconds is not given
	numSlices      = 16 // throughput is the median over this many slices
	pollSleepUS    = 200
	quietWindow    = 400 * time.Millisecond // watched for quiescence at the end of every set-up
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median.  smokeScale divides the simulated population.  Only the
// package test changes them, to keep its smoke runs short.
var (
	setupReps  = 5
	smokeScale = 1
)

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"chat-wired", "Smallest messages on a zero-delay net with no base station: per-message cost in message/selector/profile/transport/core dominates; the bypass workload for every base-station and media optimisation."},
	{"image-tiered", "The paper's Fig. 3/6-10 scenario: few, large, fragmented, tier-transformed image shares through a base station, where wavelet/media/inference/collection do most of the work."},
	{"bs-relay", "256-member base station relaying small events: registry/matchindex/dispatch/radio/basestation do nearly all the work and core receive does little."},
	{"chat-lossy-repair", "Open loop at a fixed rate over 5% loss, jitter and duplicates: exercises the order buffer, NACK/replay and dedup that the lossless workloads bypass, and is where operations can fail."},
	{"sim-lecture", "A 10k-client simulated lecture on the discrete-event net in virtual time: clock/DESNet/scenario/timeline do all the work and nothing else runs."},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening that counts as a regression; 0 = none fixed
}

// gatedE2E are the end-to-end metrics the driver gates
// (BENCHMARK.json "end_to_end").  Its contract admits only metrics that
// exist on every workload, are never zero, and repeat within their
// bound between two sets of runs minutes apart.  On the shared 2-core
// box a pure ALU loop's speed wanders by 20-25% over such intervals, so
// only set-up time (which the contract requires) and the cost counts
// qualify; see README.md "What is gated".
var gatedE2E = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	// These three are sized by chat-lossy-repair, where the number of
	// frames lost (and so of NACKs and replayed frames) is a draw that
	// differs with the seed: its spreads reached 0.8%, 2.0% and 0.9%
	// and a bound is three times the widest spread seen.  On the
	// lossless workloads they repeat within 0.04%, 0.4% and 0.6%.
	{"allocs_per_delivery", "count", "lower", 0.03},
	{"alloc_bytes_per_delivery", "B", "lower", 0.075},
	{"wire_bytes_per_delivery", "B", "lower", 0.03},
	// 0.25 because of chat-lossy-repair, whose live heap (a growing
	// archive plus replay bursts) spreads by 9%; elsewhere it holds 1-4%.
	{"heap_live_mb", "MB", "lower", 0.25},
}

// reportedE2E are the remaining end-to-end metrics of the issue's
// table.  They are what a user sees first and every run prints them,
// with the bound a paired comparison should hold them to, but they
// cannot meet the driver's contract (wall-clock and CPU time do not
// repeat within 0.25 on this box; the completion percentiles are not
// defined on every workload; delivered_ratio is constant and
// failed_share is zero on a correct run).  BENCHMARK.json therefore
// lists them under per_layer, and the last two also decide
// correct/attempted/failed.
var reportedE2E = []metricSpec{
	{"deliveries_per_s", "1/s", "higher", 0.10},
	{"cpu_us_per_delivery", "us", "lower", 0.10},
	{"complete_p50_us", "us", "lower", 0.10},
	{"complete_p90_us", "us", "lower", 0.10},
	{"delivered_ratio", "ratio", "higher", 0.001},
	{"failed_share", "ratio", "lower", 0.001},
}

// layerMetrics are the per-layer metrics, grouped by module.  A value
// of 0 on a workload means the layer is not on that workload's path.
var layerMetrics = func() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	out = append(out, reportedE2E...)
	add("us", "lower", "core.complete_p99_us")
	add("ns", "lower", "selector.compile_cached_ns", "selector.compile_cold_ns", "selector.match_ns")
	add("ratio", "higher", "selector.cache_hit_ratio")
	add("ns", "lower", "profile.flat_snapshot_ns", "profile.flat_rebuild_ns")
	add("ns", "lower", "message.encode_ns", "message.decode_ns", "message.wrap_ns", "message.unwrap_ns")
	add("count", "lower", "message.wrap_allocs", "message.decode_allocs", "message.fragments_per_msg")
	add("ratio", "lower", "message.wire_overhead_ratio")
	add("ns", "lower", "rtp.next_marshal_ns", "rtp.unmarshal_push_ns")
	add("count", "lower", "rtp.late", "rtp.duplicates")
	add("ns", "lower", "transport.simnet_multicast_ns_per_dst", "transport.simnet_unicast_ns", "transport.desnet_ns_per_event")
	add("count", "lower", "transport.inbox_overflow", "transport.link_dropped")
	add("ns", "lower", "registry.match_ids_ns", "registry.put_assessment_ns", "registry.flat_snapshot_ns", "matchindex.plan_ns")
	add("count", "lower", "registry.match_ids_allocs", "registry.candidates_per_match")
	add("ratio", "higher", "registry.match_precision")
	add("ns", "lower", "dispatch.each_ns_per_id", "dispatch.pipeline_run_ns")
	add("count", "lower", "dispatch.queue_drops")
	add("ns", "lower", "radio.sir_ns_256", "radio.sir_ns_6")
	add("us", "lower", "basestation.uplink_event_us", "basestation.downlink_event_us", "basestation.collect_deliver_us")
	add("count", "lower", "basestation.uplink_allocs_per_unicast")
	add("ns", "lower", "basestation.assess_ns")
	add("ratio", "higher", "basestation.tier_share.image", "basestation.tier_share.sketch", "basestation.tier_share.text")
	add("ns", "lower", "inference.decide_ns")
	add("count", "higher", "inference.budget_mean")
	add("us", "lower", "core.adapt_once_us", "snmp.get_roundtrip_us")
	add("us", "lower", "wavelet.encode_us", "wavelet.decode_us", "wavelet.decode_prefix_us",
		"media.to_sketch_us", "media.to_text_us", "media.gradate_us", "apps.share_split_us")
	add("ns", "lower", "apps.viewer_add_packet_ns", "apps.chat_apply_ns")
	add("ns", "lower", "session.order_push_ns", "session.order_push_gap_ns")
	add("count", "lower", "repair.requests", "repair.success", "repair.abandoned")
	add("ms", "lower", "repair.converge_p50_ms")
	add("ratio", "lower", "repair.replayed_frames_per_lost_frame")
	add("count", "lower", "core.dup_discarded")
	add("ns", "lower", "core.say_ns")
	add("us", "lower", "core.share_image_us")
	add("ratio", "lower", "core.filtered_per_delivery", "core.unattributed_share")
	add("ns", "lower", "clock.virtual_schedule_step_ns")
	add("1/s", "higher", "scenario.events_per_s")
	add("count", "lower", "scenario.allocs_per_event")
	add("us", "lower", "timeline.window_close_us")
	for _, st := range obsStages {
		add("ns", "lower", "obs.stage."+st+".p50_ns")
		add("count", "higher", "obs.stage."+st+".count")
	}
	add("ns", "lower", "obs.span_ns")
	add("ratio", "higher", "obs.tracing_overhead_ratio")
	add("MB", "lower", "runtime.heap_retained_mb")
	add("count", "lower", "runtime.gc_cycles", "runtime.goroutines")
	add("ms/s", "lower", "runtime.gc_pause_ms_per_s")
	add("us", "lower", "bench.gen_late_p99_us")
	add("count", "lower", "bench.backlog_max")
	add("1/s", "higher", "bench.offered_per_s")
	return out
}()

// obsStages are the program's own stage spans read back in the traced
// pass, in pipeline order.
var obsStages = []string{"publish", "match", "transform", "fragment", "rtp", "queue", "reorder", "deliver"}

func specByName(list []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(list))
	for _, s := range list {
		m[s.Name] = s
	}
	return m
}
