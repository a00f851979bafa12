// Command collab runs a self-contained collaboration session on the
// simulated substrate: wired clients, a base station and wireless
// clients exchange chat, whiteboard strokes and progressive images
// while the workload generator drives activity and a synthetic host
// degrades, triggering visible adaptation.
//
// Usage:
//
//	collab [-wired 2] [-wireless 2] [-events 40] [-seed 1]
//	       [-loss 0] [-repair-timeout 250ms] [-repair-retries 6]
//	       [-obs-addr :9090] [-obs-hold 0s] [-trace]
//	       [-record out.jsonl] [-slo] [-timeline tl.jsonl]
//
// With -obs-addr, pipeline instrumentation is enabled and the
// observability endpoint serves Prometheus-style /metrics, the human
// /debug index and /debug/decisions, plus /debug/slo with -slo and
// /debug/timeline with -timeline.  The session runs on virtual time
// and is over in a fraction of a second, so -obs-hold keeps the process
// serving its final state after the scenario completes, for scraping.
//
// With -trace, the cross-node flight recorder is enabled: every frame
// carries the wire trace extension, each node appends per-stage hops,
// and the run summary prints one sampled end-to-end timeline.  Combine
// with -obs-addr to browse every retained trace at /debug/trace.
//
// With -repair-timeout > 0 an archiving coordinator joins the wired
// segment and every wired client runs the automatic gap-repair loop
// (DESIGN.md §10): gaps stalled past the timeout are NACKed to the
// coordinator with exponential backoff, bounded by -repair-retries.
// Combine with -loss to watch repair close real gaps
// (aqos_repair_requests / aqos_repair_success in /metrics).
//
// With -record <path>, a persistent session record is streamed to the
// file as JSONL (DESIGN.md §13): pipeline spans, sampled QoS gauges,
// inference decisions and SLO conformance transitions under a
// versioned schema header.  After the run the file is loaded back and
// verified to hold every event the run offered.
//
// With -slo (default on), every client's QoS contract is monitored as
// an SLO with sim-scale windows, and the summary prints the
// conformance table, the state transitions and — for any violation —
// the attribution bundle (worst trace IDs, surrounding inference
// decisions, radio snapshot).  Combine with -loss to watch clients go
// violated under chaos and recover as gap repair converges.
//
// With -timeline <path>, a windowed telemetry timeline samples every
// tracked metric each 100 ms (DESIGN.md §16): per-window counter deltas
// and rates, gauge values and windowed histogram quantiles are kept in
// a bounded ring, served at /debug/timeline, attached to SLO
// violation attributions, and exported to the file at exit (.csv = CSV,
// else JSONL).
//
// The whole session runs on one virtual clock (DESIGN.md §14): both
// network segments are discrete-event networks on it, every node runs
// inline as it advances, and the workload's pacing and drains are
// advances of it, so two runs with the same flags print the same
// summary (the -trace timeline and the recorded span and note events,
// which time in-process work on the wall clock, excepted).
//
// One 100 ms telemetry tick, an event on that clock, drives all
// telemetry: each tick samples every component's QoS gauges, closes a
// timeline window over those samples and polls the SLO engine at the
// same instant.
//
// Every client adapts and reports on its own tick, once per
// core.AdaptInterval of that clock (the default 40 events span four):
// it decides its image budget, shown on its summary line, and reports
// its loss and jitter about each sender it hears.  A sender whose
// receivers report loss truncates its next share and marks the last
// packet it does send, which ends the share at every receiver, the
// wireless ones included: the base station forwards the marker with its
// packet.  The feedback line counts reports and truncated shares.
//
// -loss accepts either a probability (0.2) or a percentage (20).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/slo"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/trace"
	"adaptiveqos/internal/transport"
)

// telemetryTick is the one telemetry period: the QoS sampling round,
// the timeline's window and the width of collab's SLO buckets
// (LongWindow/16).
const telemetryTick = 100 * time.Millisecond

// eventGap is the virtual time between two workload events.
const eventGap = core.AdaptInterval / 10

// tickTelemetry schedules the one telemetry event on clk: every
// telemetryTick it runs samplers, closes a timeline window over those
// samples and polls the SLO engine at the tick's instant, skipping nil
// parts, then schedules itself again.  It fires only while the clock
// is advanced.
func tickTelemetry(clk *clock.Virtual, samplers []obs.SamplerFunc, tl *timeline.Timeline, sloEng *slo.Engine) {
	var tick func(now time.Time)
	tick = func(now time.Time) {
		obs.Sample(now, samplers...)
		if tl != nil {
			tl.SampleNow()
		}
		if sloEng != nil {
			sloEng.Poll(now)
		}
		clk.ScheduleFunc(telemetryTick, tick)
	}
	clk.ScheduleFunc(telemetryTick, tick)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("collab: %v", err)
	}
}

// run is the whole command: it parses args, runs the session and
// writes the summary to out (progress goes to the log).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collab", flag.ContinueOnError)
	nWired := fs.Int("wired", 2, "number of wired clients")
	nWireless := fs.Int("wireless", 2, "number of wireless clients")
	nEvents := fs.Int("events", 40, "number of workload events")
	seed := fs.Int64("seed", 1, "workload seed")
	obsAddr := fs.String("obs-addr", "", "serve /metrics and /debug/qos on this address (enables instrumentation)")
	obsHold := fs.Duration("obs-hold", 0, "keep serving the observability endpoint this long after the run")
	loss := fs.Float64("loss", 0, "per-frame loss probability on wired links (chaos injection)")
	repairTimeout := fs.Duration("repair-timeout", 250*time.Millisecond, "gap stall timeout before a NACK to the coordinator (0 disables gap repair)")
	repairRetries := fs.Int("repair-retries", 6, "repair request budget per gap before skipping it")
	traceFlag := fs.Bool("trace", false, "enable the cross-node flight recorder and print a sampled timeline in the summary")
	recordPath := fs.String("record", "", "stream a JSONL session record to this file (enables instrumentation)")
	sloFlag := fs.Bool("slo", true, "monitor per-client SLO conformance and print the summary")
	tlPath := fs.String("timeline", "", "export the run's per-window metric timeline to this file (.csv = CSV, else JSONL; enables instrumentation)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *loss > 1 {
		*loss /= 100 // -loss 20 means 20%
	}
	if *traceFlag || *recordPath != "" {
		// Session records carry trace IDs; recording implies tracing so
		// the recorded spans are attributable.
		obs.SetTraceEnabled(true)
	}

	// Every node and the telemetry run on clk, a wall-independent
	// instant that only the workload loop below moves.
	clk := clock.NewVirtual(time.Time{})
	instrument := *obsAddr != "" || *recordPath != "" || *tlPath != ""
	if instrument {
		obs.SetEnabled(true)
	}

	// Windowed telemetry timeline: snapshot every tracked counter, gauge
	// and histogram each telemetry tick into the bounded ring, publish it
	// process-globally (SLO attributions attach curves) and export the
	// windows at exit.
	var tl *timeline.Timeline
	if *tlPath != "" {
		tl = timeline.New(timeline.Config{Window: telemetryTick, Clock: clk})
		tl.TrackAll()
		timeline.Enable(tl)
		defer timeline.Disable()
	}
	// The record counters are process-wide: verification compares this
	// run's share of them.
	recordBase := metrics.Counters()
	if *recordPath != "" {
		if _, err := obs.StartRecording(*recordPath, "collab"); err != nil {
			return fmt.Errorf("session record: %w", err)
		}
		log.Printf("collab: recording session to %s", *recordPath)
	}

	// SLO conformance monitoring: the sim runs seconds, not days, so
	// the windows are sim-scale — violations show within ~half a second
	// of sustained badness and recovery within a couple of polls of the
	// burn dying down.  The loss budget sits above the repair loop's
	// residual (tail losses are invisible to gap detection) so a
	// repaired session can actually recover.
	var sloEng *slo.Engine
	if *sloFlag {
		slo.SetEnabled(true)
		sloSpec := slo.SpecForClass("interactive")
		sloSpec.LossMax = 0.08
		sloSpec.ShortWindow = 400 * time.Millisecond
		sloSpec.LongWindow = 1600 * time.Millisecond
		sloSpec.HoldDown = 400 * time.Millisecond
		sloSpec.RecoveryDeadline = 2 * time.Second
		sloEng = slo.Default()
		sloEng.SetDefaultSpec(sloSpec)
	}

	// The endpoint serves this run's decisions, and its SLO engine and
	// timeline when the flags build them.
	if *obsAddr != "" {
		endpoints := []obs.Endpoint{{Path: "/debug/decisions", Desc: "inference decision audit (?client=<id>)",
			Handler: http.HandlerFunc(inference.ServeDecisions)}}
		if sloEng != nil {
			endpoints = append(endpoints, obs.Endpoint{Path: "/debug/slo",
				Desc: "per-client SLO conformance, transitions and attribution", Handler: sloEng})
		}
		if tl != nil {
			endpoints = append(endpoints, obs.Endpoint{Path: "/debug/timeline",
				Desc: "windowed metric curves (?series=&contains=&windows=&format=text|json|jsonl|csv)", Handler: tl})
		}
		srv, err := obs.Serve(*obsAddr, endpoints...)
		if err != nil {
			return fmt.Errorf("observability endpoint: %w", err)
		}
		defer srv.Close()
		log.Printf("collab: serving /metrics and the /debug index on %s", *obsAddr)
	}

	wiredNet := transport.NewDESNet(transport.DESNetConfig{
		Seed:        *seed,
		DefaultLink: transport.Link{Loss: *loss},
		Clock:       clk,
	})
	// The radio segment is a star: its links are down but those between
	// the base station and each wireless member, so a member reaches the
	// session and the other members only through the station.
	radioNet := transport.NewDESNet(transport.DESNetConfig{Seed: *seed + 1, Clock: clk, DefaultLink: transport.Link{Down: true}})
	defer wiredNet.Close()
	defer radioNet.Close()

	// Archiving coordinator + gap repair: replicas NACK it for replays
	// when a sender's event stream stalls on a missing frame.
	var coord *core.Coordinator
	var repairOpts *core.RepairOptions
	if *repairTimeout > 0 {
		coordConn, err := wiredNet.Attach("coordinator")
		if err != nil {
			return err
		}
		// The archive must hear everything to answer NACKs: keep the
		// links into the coordinator clean even under -loss.
		coord = core.NewCoordinator(coordConn, session.Group{Objective: "collab-demo"})
		defer coord.Close()
		repairOpts = &core.RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: *repairTimeout,
			MaxRetries:   *repairRetries,
		}
	}

	// Wired clients, the first with an SNMP-monitored host.
	host := hostagent.NewHost("wired-0-host")
	host.SetSchedule(hostagent.ParamCPULoad, hostagent.Ramp{From: 20, To: 95, Steps: *nEvents})
	host.Set(hostagent.ParamPageFaults, 20)
	monitor := &hostagent.Monitor{
		Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(host)}, snmp.V2c, "public"),
	}
	samplers := []obs.SamplerFunc{host.SampleQoS}

	var wired []*core.Client
	var senders []string
	for i := 0; i < *nWired; i++ {
		id := fmt.Sprintf("wired-%d", i)
		conn, err := wiredNet.Attach(id)
		if err != nil {
			return err
		}
		cfg := core.Config{Repair: repairOpts}
		if i == 0 {
			cfg.Monitor = monitor
		}
		if coord != nil {
			wiredNet.SetLinkBoth(id, "coordinator", transport.Link{})
		}
		c := core.NewClient(conn, cfg)
		defer c.Close()
		samplers = append(samplers, c.SampleQoS)
		wired = append(wired, c)
		senders = append(senders, id)
	}

	// Base station bridging to the wireless segment.
	bsWired, err := wiredNet.Attach("bs")
	if err != nil {
		return err
	}
	bsRF, err := radioNet.Attach("bs")
	if err != nil {
		return err
	}
	bs := basestation.New("bs", bsWired, bsRF, radio.NewChannel(radio.Params{}), basestation.Config{})
	defer bs.Close()
	if coord != nil {
		wiredNet.SetLinkBoth("bs", "coordinator", transport.Link{})
	}
	samplers = append(samplers, bs.SampleQoS)

	var wireless []*core.Client
	for i := 0; i < *nWireless; i++ {
		id := fmt.Sprintf("wireless-%d", i)
		conn, err := radioNet.Attach(id)
		if err != nil {
			return err
		}
		radioNet.SetLinkBoth("bs", id, transport.Link{})
		c := core.NewClient(conn, core.Config{})
		defer c.Close()
		samplers = append(samplers, c.SampleQoS)
		p := profile.New(id)
		assess, err := bs.Join(p, 50+float64(i)*6, 1)
		if err != nil {
			return fmt.Errorf("join %s: %w", id, err)
		}
		log.Printf("collab: %s joined at %.0fm: SIR %.1f dB, tier %s",
			id, assess.Distance, assess.SIRdB, assess.Tier)
		wireless = append(wireless, c)
		senders = append(senders, id)
	}

	// The samplers feed the gauges and the SLO engine (loss, the radio
	// picture), so they run whenever either is on.
	if !instrument && sloEng == nil {
		samplers = nil
	}
	tickTelemetry(clk, samplers, tl, sloEng)

	gen := trace.NewGenerator(*seed, senders[:*nWired], trace.DefaultMix())
	imgCount := 0
	for i := 0; i < *nEvents; i++ {
		host.Step()
		ev := gen.Next()
		sender := wired[slices.Index(senders, ev.Sender)]
		switch ev.Kind {
		case trace.EventChat:
			if err := sender.Say(ev.Text, ""); err != nil {
				log.Printf("collab: say: %v", err)
			}
		case trace.EventStroke:
			s := apps.Stroke{ID: uint32(i), Color: uint8(i % 8), Width: 2,
				Points: []apps.Point{{X: int16(i), Y: 0}, {X: int16(i), Y: 20}}}
			if err := sender.Draw(s, ""); err != nil {
				log.Printf("collab: draw: %v", err)
			}
		case trace.EventImageShare:
			imgCount++
			obj, err := media.EncodeImage(ev.Image, ev.Description)
			if err != nil {
				log.Printf("collab: encode: %v", err)
				continue
			}
			if err := sender.ShareImage(fmt.Sprintf("img-%d", imgCount), obj, ""); err != nil {
				log.Printf("collab: share: %v", err)
			}
		}
		clk.Advance(eventGap)
	}
	clk.Advance(200 * time.Millisecond) // drain in-flight deliveries
	if coord != nil && *loss > 0 {
		// Give the repair loop time to detect stalls, NACK the
		// coordinator and absorb the replays before the summary.
		clk.Advance(4**repairTimeout + 500*time.Millisecond)
	}
	if sloEng != nil {
		// Let the SLO windows drain post-traffic so violated clients can
		// walk to recovered before the summary (bounded wait: a client
		// pinned down by unrepaired loss stays violated, honestly).
		violated := func(st slo.ClientStatus) bool { return st.State == slo.StateViolated }
		for deadline := clk.Now().Add(4 * time.Second); clk.Now().Before(deadline) && slices.ContainsFunc(sloEng.Status(), violated); {
			clk.Advance(telemetryTick)
		}
	}

	// Each client's line ends with its last decision: the image budget
	// and the rules that set it.
	decision := func(c *core.Client) string {
		d := c.LastDecision()
		return fmt.Sprintf("budget=%d/%d rules=%v", d.EffectiveBudget(apps.SharePackets), apps.SharePackets, d.Fired)
	}
	fmt.Fprintln(out, "\n--- session summary ---")
	for _, c := range wired {
		st := c.Stats()
		fmt.Fprintf(out, "%-12s chat=%d strokes=%d images=%d events=%d data=%d filtered=%d %s\n",
			c.ID(), c.Chat().Len(), c.Whiteboard().Len(), len(c.Viewer().Objects()),
			st.EventsReceived, st.DataPackets, st.EventsFiltered, decision(c))
	}
	for _, c := range wireless {
		st := c.Stats()
		fmt.Fprintf(out, "%-12s chat=%d images=%d inbox=%d events=%d data=%d %s\n",
			c.ID(), c.Chat().Len(), len(c.Viewer().Objects()), c.Inbox().Len(),
			st.EventsReceived, st.DataPackets, decision(c))
	}
	bsStats := bs.Stats()
	fmt.Fprintf(out, "%-12s uplink=%d dropped=%d full=%d sketch=%d text=%d downlink=%d\n",
		"bs", bsStats.UplinkEvents, bsStats.UplinkDropped, bsStats.ForwardFullImage,
		bsStats.ForwardSketch, bsStats.ForwardText, bsStats.DownlinkUnicasts)
	var reports, truncated uint64
	for _, c := range append(wired, wireless...) {
		st := c.Stats()
		reports += st.ReportsSent
		truncated += st.Truncated
	}
	fmt.Fprintf(out, "%-12s reports=%d truncated-shares=%d\n", "feedback", reports, truncated)
	if coord != nil {
		ctrs := metrics.Counters()
		fmt.Fprintf(out, "%-12s archived=%d repair: requests=%d repaired=%d abandoned=%d replayed=%d\n",
			"coordinator", coord.ArchivedEvents(),
			ctrs[metrics.CtrRepairRequests], ctrs[metrics.CtrRepairSuccess],
			ctrs[metrics.CtrRepairAbandoned], ctrs[metrics.CtrRepairReplayedFrames])
	}

	if *traceFlag {
		summaries := obs.TraceSummaries(0)
		fmt.Fprintf(out, "\n--- flight recorder (%d traces retained) ---\n", len(summaries))
		// Sample the most informative timeline: a complete
		// publish→deliver trace with the most hops, falling back to the
		// deepest incomplete one.
		var best obs.TraceSummary
		for _, s := range summaries {
			better := s.Hops > best.Hops
			if s.Complete() != best.Complete() {
				better = s.Complete()
			}
			if better {
				best = s
			}
		}
		if best.Hops > 0 {
			if err := obs.WriteTimeline(out, best.ID); err != nil {
				log.Printf("collab: sampled timeline: %v", err)
			}
		}
	}

	if sloEng != nil {
		sloEng.Poll(clk.Now())
		fmt.Fprintln(out, "\n--- slo conformance ---")
		sloEng.WriteSummary(out, "")
	}

	if instrument {
		obs.Sample(clk.Now(), samplers...)
		fmt.Fprintln(out, "\n--- qos telemetry ---")
		obs.WriteQoSDebug(out, 16)
		if tl != nil {
			// Close the partial tail window after the final sample so the
			// export covers the whole run, then write by extension.
			tl.Flush()
			if err := tl.WriteFile(*tlPath); err != nil {
				return fmt.Errorf("timeline export: %w", err)
			}
			log.Printf("collab: timeline exported to %s", *tlPath)
		}
		if *obsHold > 0 {
			log.Printf("collab: holding observability endpoint on %s for %s", *obsAddr, *obsHold)
			clock.Wall.Sleep(*obsHold)
		}
	}

	if *recordPath != "" {
		if err := obs.StopRecording(); err != nil {
			return fmt.Errorf("session record: %w", err)
		}
		sess, err := obs.LoadSessionFile(*recordPath)
		if err != nil {
			return fmt.Errorf("session record load: %w", err)
		}
		ctrs := metrics.Counters()
		appended := ctrs[metrics.CtrRecordAppended] - recordBase[metrics.CtrRecordAppended]
		dropped := ctrs[metrics.CtrRecordDropped] - recordBase[metrics.CtrRecordDropped]
		fmt.Fprintln(out, "\n--- session record ---")
		fmt.Fprintf(out, "%s: schema %s v%d, node %s, truncated=%v\n",
			*recordPath, sess.Header.Schema, sess.Header.Version, sess.Header.Node, sess.Truncated)
		counts := sess.CountByType()
		for _, typ := range []string{obs.RecTypeSpan, obs.RecTypeQoS, obs.RecTypeDecision, obs.RecTypeSLO, obs.RecTypeNote, obs.RecTypePublish} {
			if counts[typ] > 0 {
				fmt.Fprintf(out, "  %-8s %d\n", typ, counts[typ])
			}
		}
		// Every producer has finished before StopRecording, so the record
		// must hold every event this run offered.
		if uint64(len(sess.Events)) != appended || dropped != 0 {
			return fmt.Errorf("record verification FAILED: loaded %d events, aqos_record_appended=%d (dropped=%d)",
				len(sess.Events), appended, dropped)
		}
		fmt.Fprintf(out, "record verified: %d loaded events match aqos_record_appended (dropped=%d)\n",
			len(sess.Events), dropped)
	}
	return nil
}
