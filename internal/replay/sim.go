package replay

import (
	"slices"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/transport"
)

// SimConfig sets the replayed network's link model and seed.  The same
// (workload, policy, config) triple always produces the same Outcome:
// the rerun is single-threaded on a virtual clock, every random draw
// is seeded, and every fan-out and poll iterates in sorted order.
type SimConfig struct {
	// Seed drives the network's loss/jitter draws and the repair
	// engines' backoff jitter (0 means 1).
	Seed int64
	// Delay is the fixed one-way link delay (default 5ms).
	Delay time.Duration
	// Jitter adds uniform random delay in [0, Jitter] on lossy links.
	Jitter time.Duration
	// Loss is the per-frame loss probability on client↔client links; a
	// negative value means "use the workload's recorded mean loss".
	// Links to the replay coordinator are always clean, mirroring the
	// live deployment's wired coordinator.
	Loss float64
	// CurveWindows, when > 0, attaches per-window metric curves to the
	// Outcome: the recorded span splits into this many timeline windows
	// (plus one drain-tail window), each carrying delivery/repair deltas
	// and windowed latency quantiles.
	CurveWindows int
}

func (c SimConfig) withDefaults(w *Workload) SimConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Delay <= 0 {
		c.Delay = 5 * time.Millisecond
	}
	if c.Loss < 0 {
		c.Loss = w.MeanLoss
	}
	if c.Loss > 1 {
		c.Loss = 1
	}
	return c
}

// Outcome is one policy's measured rerun.
type Outcome struct {
	Policy Policy `json:"policy"`

	// Offered counts the workload's publish frames; Sent those that
	// survived the candidate inference budget; Truncated the rest.
	Offered   int `json:"offered"`
	Sent      int `json:"sent"`
	Truncated int `json:"truncated"`

	// Expected is sent frames × reachable receivers; Delivered counts
	// the receive kernels' Deliver effects (in sender order under a
	// repair-on candidate, gap-repaired and abandon-drained included);
	// Abandoned counts gaps given up on.
	Expected  int `json:"expected"`
	Delivered int `json:"delivered"`
	Abandoned int `json:"abandoned"`

	// LossFrac is the post-repair fraction of expected deliveries that
	// never happened.
	LossFrac float64 `json:"loss_frac"`

	// Byte accounting, all in wire datagrams: original data, coordinator
	// repair replays, and NACK control traffic.
	DataBytes   uint64 `json:"data_bytes"`
	RepairBytes uint64 `json:"repair_bytes"`
	NackBytes   uint64 `json:"nack_bytes"`

	// RepairRequests counts NACKs issued; Repaired gaps closed after
	// at least one request.
	RepairRequests int `json:"repair_requests"`
	Repaired       int `json:"repaired"`

	// DeliveryNS holds every delivery latency (publish to Deliver
	// effect, virtual ns), sorted; ConvergeNS every repaired gap's
	// first-NACK-to-observed-fill latency as the kernel's gap repair
	// measures it (the figure the live repair SLO is fed), sorted.
	DeliveryNS []int64 `json:"-"`
	ConvergeNS []int64 `json:"-"`

	// DeliveryP99 and ConvergeP99 summarize the samples above.
	DeliveryP99 time.Duration `json:"delivery_p99_ns"`
	ConvergeP99 time.Duration `json:"converge_p99_ns"`

	// Curve holds the per-window metric series when
	// SimConfig.CurveWindows > 0 — how this candidate's delivery, repair
	// traffic and latency evolved across the replayed span.
	Curve []timeline.SeriesData `json:"curve,omitempty"`
}

// Simulate reruns the workload under one candidate policy and returns
// the measured outcome.
func Simulate(w *Workload, pol Policy, cfg SimConfig) Outcome {
	return simulate(w, pol, cfg, nil)
}

// simulate is Simulate with the replayed network's trace handed to
// trace (nil: nobody watches).
func simulate(w *Workload, pol Policy, cfg SimConfig, trace func(transport.TraceEvent)) Outcome {
	pol = pol.withDefaults()
	cfg = cfg.withDefaults(w)
	out := Outcome{Policy: pol, Offered: len(w.Publishes)}

	const coordID = "\x00replay-coord" // NUL prefix: can't collide with client IDs
	clk := clock.NewVirtual(time.Unix(0, w.StartNS))
	net := transport.NewDESNet(transport.DESNetConfig{
		Seed:        cfg.Seed,
		DefaultLink: transport.Link{Delay: cfg.Delay, Jitter: cfg.Jitter, Loss: cfg.Loss},
		MTU:         1 << 22,
		Clock:       clk,
	})
	defer net.Close()
	net.SetTrace(trace)

	// Candidate curves: derived delta series over the Outcome's own
	// accounting plus a windowed latency histogram.  Boundary SampleNow
	// events are scheduled before any workload event, so window closes
	// deterministically precede same-instant traffic.
	var tl *timeline.Timeline
	var lat *metrics.Histogram
	if cfg.CurveWindows > 0 {
		lat = &metrics.Histogram{}
		span := time.Duration(w.EndNS - w.StartNS)
		window := span / time.Duration(cfg.CurveWindows)
		if window <= 0 {
			window = time.Millisecond
		}
		tl = timeline.New(timeline.Config{
			Window:    window,
			Retention: cfg.CurveWindows + 1, // +1: the drain-tail window
			Clock:     clk,
		})
		delta := func(get func() int) func() float64 {
			prev := 0
			return func() float64 {
				cur := get()
				d := cur - prev
				prev = cur
				return float64(d)
			}
		}
		tl.TrackFunc("replay_sent", delta(func() int { return out.Sent }))
		tl.TrackFunc("replay_delivered", delta(func() int { return out.Delivered }))
		tl.TrackFunc("replay_expected", delta(func() int { return out.Expected }))
		tl.TrackFunc("replay_truncated", delta(func() int { return out.Truncated }))
		tl.TrackFunc("replay_repair_requests", delta(func() int { return out.RepairRequests }))
		tl.TrackFunc("replay_abandoned", delta(func() int { return out.Abandoned }))
		tl.TrackHistogram("replay_delivery_latency_ns", lat)
		for i := 1; i <= cfg.CurveWindows; i++ {
			at := time.Duration(int64(i) * int64(span) / int64(cfg.CurveWindows))
			clk.ScheduleFunc(at, func(time.Time) { tl.SampleNow() })
		}
	}

	// Every node hangs off the coordinator by a clean link, mirroring
	// the live deployment's wired coordinator.
	attach := func(id string, h func(transport.Packet)) transport.Conn {
		conn, err := net.AttachHandler(id, h)
		if err != nil {
			panic("replay: attach " + id + ": " + err.Error())
		}
		if id != coordID {
			net.SetLinkBoth(id, coordID, transport.Link{Delay: cfg.Delay})
		}
		return conn
	}

	// Coordinator: the real archive-and-replay kernel.  The only
	// unicasts it receives are NACKs.
	var coord *core.CoordinatorKernel
	coord = core.NewCoordinatorKernel(attach(coordID, func(p transport.Packet) {
		if p.Unicast {
			out.NackBytes += uint64(len(p.Data))
		}
		coord.HandlePacket(p)
	}), session.Group{Objective: "replay"})

	// Receivers (publishers included — multicast excludes self): the
	// real receive kernel each, with the candidate's repair knobs.  An
	// outcome's deliveries are its Deliver effects; the only unicasts a
	// receiver gets are coordinator replays.
	deliver := func(m *message.Message) {
		d := clk.Now().Sub(m.Timestamp).Nanoseconds()
		out.Delivered++
		out.DeliveryNS = append(out.DeliveryNS, d)
		if lat != nil {
			lat.Observe(d)
		}
	}
	conns := make(map[string]transport.Conn, len(w.Receivers))
	kernels := make([]*core.Kernel, len(w.Receivers))
	for i, id := range w.Receivers {
		i := i
		conns[id] = attach(id, func(p transport.Packet) {
			if p.Unicast {
				out.RepairBytes += uint64(len(p.Data))
			}
			kernels[i].HandlePacket(p)
		})
		var kcfg core.Config
		if pol.Repair.Enabled {
			opts := pol.Repair.options()
			opts.Coordinator, opts.Seed = coordID, cfg.Seed+int64(i)+1
			kcfg.Repair = &opts
		}
		kernels[i] = core.NewKernel(conns[id], kcfg)
		kernels[i].Deliver = deliver
	}

	// Sender schedule: each surviving publish renumbers with a fresh
	// per-sender seq at send time — candidate budgets change which
	// frames exist *before* sequencing, exactly as the live pipeline
	// truncates before the session layer numbers frames — and goes out
	// as a real message through the real codec and envelope
	// (fragmented past the client MTU), carrying the recorded kind,
	// media, level and a body of the recorded size.
	type sender struct {
		conn    transport.Conn
		env     message.Enveloper
		nextSeq uint32
		reach   int // receivers other than itself
	}
	senders := make(map[string]*sender, len(w.Senders))
	for _, id := range w.Senders {
		sn := &sender{conn: conns[id], env: message.Enveloper{Node: id}, reach: len(w.Receivers) - 1}
		if sn.conn == nil {
			sn.conn = attach(id, func(transport.Packet) {})
			sn.reach = len(w.Receivers)
		}
		senders[id] = sn
	}
	for i := range w.Publishes {
		pub := w.Publishes[i]
		d := time.Duration(pub.AtNS - w.StartNS)
		clk.ScheduleFunc(d, func(now time.Time) {
			kind := message.KindEvent
			if pub.Kind == "data" {
				kind = message.KindData
				budget := pol.Inference.Decide(selector.Attributes{
					inference.StateCPULoad:    selector.N(w.hostValueAt("cpu-load", pub.AtNS)),
					inference.StatePageFaults: selector.N(w.hostValueAt("page-faults", pub.AtNS)),
					inference.StateLoss:       selector.N(cfg.Loss),
				}).EffectiveBudget(pol.Inference.MaxPackets)
				if pub.Level >= budget {
					out.Truncated++
					return
				}
			}
			sn := senders[pub.Sender]
			sn.nextSeq++
			datagrams, err := sn.env.WrapMessage(&message.Message{
				Kind:      kind,
				Sender:    pub.Sender,
				Seq:       sn.nextSeq,
				Timestamp: now,
				Attrs: selector.Attributes{
					message.AttrMedia: selector.S(pub.Modality),
					message.AttrLevel: selector.N(float64(pub.Level)),
				},
				Body: make([]byte, pub.Size),
			})
			if err != nil {
				panic("replay: encode publish: " + err.Error())
			}
			out.Sent++
			out.Expected += sn.reach
			for _, dg := range datagrams {
				out.DataBytes += uint64(len(dg))
				sn.conn.Give("", dg)
			}
		})
	}

	// Repair poll ticks: one recurring event polls every kernel, in
	// receiver order, from the driving goroutine — Poll itself scans
	// streams sorted, so the whole control loop is deterministic.  The
	// kernels' repair counters move only inside Poll, so the tick is also
	// where the outcome reads them.
	end := time.Unix(0, w.EndNS)
	drain := 500 * time.Millisecond
	if pol.Repair.Enabled && len(kernels) > 0 {
		drain = pol.Repair.options().AbandonSpan() + time.Second
		interval := kernels[0].PollInterval()
		stopAt := end.Add(drain)
		repaired := make(map[[2]string]uint64) // (receiver, stream) → repairs harvested
		var tick func(now time.Time)
		tick = func(now time.Time) {
			var requests, repairs, abandoned uint64
			for i, k := range kernels {
				k.Poll(now)
				// Map order is harmless: sums commute and ConvergeNS is
				// sorted before anyone reads it.
				for stream, st := range k.RepairStatus() {
					requests += st.Requests
					repairs += st.Repaired
					abandoned += st.Abandoned
					// A Poll closes at most one gap per stream.
					if key := [2]string{w.Receivers[i], stream}; st.Repaired > repaired[key] {
						repaired[key] = st.Repaired
						out.ConvergeNS = append(out.ConvergeNS, int64(st.LastRepair))
					}
				}
			}
			out.RepairRequests, out.Repaired, out.Abandoned = int(requests), int(repairs), int(abandoned)
			if now.Before(stopAt) {
				clk.ScheduleFunc(interval, tick)
			}
		}
		clk.ScheduleFunc(interval, tick)
	}

	clk.AdvanceTo(end.Add(drain + 4*cfg.Delay + cfg.Jitter))
	if tl != nil {
		// One synchronous close captures the drain tail (repairs and
		// stragglers landing after the recorded span).
		tl.SampleNow()
		out.Curve = tl.Query(timeline.Query{})
	}

	if out.Expected > 0 {
		out.LossFrac = 1 - float64(out.Delivered)/float64(out.Expected)
		if out.LossFrac < 0 {
			out.LossFrac = 0
		}
	}
	slices.Sort(out.DeliveryNS)
	slices.Sort(out.ConvergeNS)
	out.DeliveryP99 = time.Duration(p99(out.DeliveryNS))
	out.ConvergeP99 = time.Duration(p99(out.ConvergeNS))
	return out
}

// p99 returns the 99th-percentile of a sorted sample (0 when empty).
func p99(sorted []int64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*99 + 99) / 100
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
