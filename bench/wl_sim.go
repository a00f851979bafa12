package main

import (
	"fmt"
	"runtime"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/scenario"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/transport"
)

// sim-lecture: a 10k-client simulated lecture on the discrete-event
// network in virtual time, repeated; single-threaded by construction.
// A delivery is one simulated copy arriving at a subscriber.
const (
	simClients  = 10000
	simDuration = 60 * time.Second
	simRate     = 2
	simPayload  = 256
)

var simLink = transport.Link{Delay: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.01}

type simLecture struct {
	cfg    scenario.Config
	reps   uint64
	hash   string // EventHash of the first repetition
	failed uint64
	notes  []string

	delivered, sent uint64 // over all repetitions
	events          uint64 // timed phase: simulated events
	mallocs         uint64
}

func newSimLecture(seed int64) *simLecture {
	return &simLecture{cfg: scenario.Config{Kind: scenario.LectureHall, Clients: simClients / smokeScale, Seed: seed,
		Duration: simDuration, Rate: simRate, PayloadBytes: simPayload, Link: simLink}}
}

// generate has nothing to materialise: the scenario draws its whole
// workload from the seed in the config.
func (w *simLecture) generate() error { return nil }

func (w *simLecture) inputDigest() string {
	return fmt.Sprintf("lecture-%d-%s-%d-%d-seed%d", w.cfg.Clients, simDuration, simRate, simPayload, w.cfg.Seed)
}

// setup warms the simulator with a scaled-down run: every code path
// and pool the full run uses, at a tenth of the population.
func (w *simLecture) setup() error {
	small := w.cfg
	small.Clients = w.cfg.Clients / 10
	_, err := scenario.Run(small)
	return err
}

func (w *simLecture) close() {}

// rep runs the scenario once and checks it against the oracle: every
// repetition of one seed must produce the same event trace, and every
// copy sent is either delivered or dropped.
func (w *simLecture) rep() scenario.Result {
	res, err := scenario.Run(w.cfg)
	w.reps++
	switch {
	case err != nil:
		w.fail("rep %d: %v", w.reps, err)
	case res.Delivered+res.Dropped != res.Sent:
		w.fail("rep %d: delivered %d + dropped %d != sent %d", w.reps, res.Delivered, res.Dropped, res.Sent)
	case w.hash == "":
		w.hash = res.EventHash
	case res.EventHash != w.hash:
		w.fail("rep %d: event hash %s differs from the first repetition's %s", w.reps, res.EventHash, w.hash)
	}
	w.delivered += res.Delivered
	w.sent += res.Sent
	return res
}

func (w *simLecture) fail(format string, args ...any) {
	w.failed++
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

// timed repeats the scenario until d has passed.  The throughput
// samples are per repetition, not per wall-clock slice.
func (w *simLecture) timed(d time.Duration, ph *phase) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		res := w.rep()
		ph.slices = append(ph.slices, float64(res.Delivered)/time.Since(t0).Seconds())
		ph.ops++
		ph.deliveries += res.Delivered
		// Bytes put on simulated links, lost copies included.
		ph.wireBytes += res.Sent * simPayload
		w.events += res.Sent + res.Published
	}
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
}

func (w *simLecture) latency(time.Duration) []float64 { return nil }

func (w *simLecture) check() verdict {
	// Loss is part of the simulated link, so the oracle's expectation is
	// what the simulator itself accounts as delivered; the check is the
	// conservation law and the repeatable trace above.
	return verdict{attempted: max(w.reps, 1), failed: w.failed, expected: w.delivered, applied: w.delivered,
		lossless: true, notes: w.notes}
}

func (w *simLecture) counters(ph *phase, lay layers) {
	if ph.wall > 0 && w.events > 0 {
		lay["scenario.events_per_s"] = float64(w.events) / ph.wall.Seconds()
		lay["scenario.allocs_per_event"] = float64(w.mallocs) / float64(w.events)
	}
	lay["transport.link_dropped"] = float64(w.sent - w.delivered)
}

func (w *simLecture) ladder(tr *tracer, lay layers) float64 {
	// clock: schedule one event and step to it.
	clk := clock.NewVirtual(time.Time{})
	fire := func(time.Time) {}
	for op := 0; op < 1024; op++ {
		tr.doN("clock.virtual_schedule_step", op, fastReps, func() {
			clk.ScheduleFunc(time.Millisecond, fire)
			clk.Step()
		})
	}
	lay["clock.virtual_schedule_step_ns"] = tr.ns("clock.virtual_schedule_step")

	// transport: one multicast to 256 handler-mode nodes on a DESNet,
	// run to idle; cost per delivered event.
	net := transport.NewDESNet(transport.DESNetConfig{Seed: w.cfg.Seed, DefaultLink: simLink, Clock: clk})
	src, err := net.AttachHandler("src", func(transport.Packet) {})
	if err != nil {
		return 0
	}
	const fan = 256
	var got uint64
	for i := 0; i < fan; i++ {
		if _, err := net.AttachHandler(fmt.Sprintf("dst-%d", i), func(transport.Packet) { got++ }); err != nil {
			return 0
		}
	}
	frame := make([]byte, simPayload)
	for op := 0; op < 64; op++ {
		tr.do("transport.desnet_multicast_run", op, func() {
			src.Multicast(frame)
			clk.RunUntilIdle(0)
		})
	}
	if got > 0 {
		lay["transport.desnet_ns_per_event"] = tr.totalNS("transport.desnet_multicast_run") / float64(got)
	}

	// timeline: closing one window over the series mix a scenario run
	// tracks (4 counters, 1 histogram, 2 derived series).
	tl := timeline.New(timeline.Config{Window: time.Second, Retention: 16, Clock: clk})
	ctrs := make([]*metrics.Counter, 4)
	for i := range ctrs {
		ctrs[i] = &metrics.Counter{}
		tl.TrackCounter(fmt.Sprintf("bench.ctr.%d", i), ctrs[i])
	}
	hist := &obs.Histogram{}
	tl.TrackHistogram("bench.hist", hist)
	tl.TrackFunc("bench.derived.0", func() float64 { return 1 })
	tl.TrackFunc("bench.derived.1", func() float64 { return 2 })
	for op := 0; op < 256; op++ {
		for _, c := range ctrs {
			c.Add(3)
		}
		hist.Observe(int64(20+op) * 1e6)
		clk.Advance(time.Second)
		tr.do("timeline.window_close", op, func() { tl.SampleNow() })
	}
	lay["timeline.window_close_us"] = tr.ns("timeline.window_close") / 1e3
	return 0 // not a wall-clock pipeline: no ladder share
}
