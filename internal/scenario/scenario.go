// Package scenario generates deterministic large-scale workloads on a
// transport.DESNet: every client is a handler-mode attachment whose
// logic runs inside virtual-clock events, so a seeded run of 100k
// clients is single-threaded, reproducible byte for byte, and costs
// wall-clock seconds-to-minutes instead of the simulated session's
// real length.  Four generators cover the workload shapes the paper's
// adaptation machinery must survive: a flash-crowd join ramp, a
// lecture-hall broadcast, mobility churn with link degradation, and a
// diurnal load curve.
//
// The output is a Result: end-to-end delivery latency quantiles, loss,
// a per-time-bucket curve of both, and a running event hash over the
// network trace that the determinism test (and CI gate) compares
// across runs.
package scenario

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/transport"
)

// Kind names a workload generator.
type Kind string

// The workload generators.
const (
	FlashCrowd  Kind = "flash"   // ramp joins while publishers broadcast
	LectureHall Kind = "lecture" // one speaker, N silent subscribers
	Churn       Kind = "churn"   // join/leave cycling + link degradation
	Diurnal     Kind = "diurnal" // sinusoidal publish rate over the day
)

// Config parameterizes one scenario run.
type Config struct {
	Kind Kind
	// Clients is the subscriber population (default 1000).
	Clients int
	// Publishers is the broadcasting population (default 1 for
	// lecture, 4 otherwise).
	Publishers int
	// Seed drives both the network model and the workload (0 means 1).
	Seed int64
	// Duration is the simulated session length (default 60s).
	Duration time.Duration
	// Rate is each publisher's steady publish rate in msgs/s (default
	// 2; the diurnal generator modulates around it).
	Rate float64
	// PayloadBytes sizes each published frame (default 256; minimum 16
	// for the embedded timestamp header).
	PayloadBytes int
	// Link is the per-client downlink model (zero = ideal links —
	// usually you want some Delay/Jitter/Loss here).
	Link transport.Link
	// CurveBuckets is the number of time buckets in the latency/loss
	// curves (default 12).
	CurveBuckets int
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1000
	}
	if c.Publishers <= 0 {
		if c.Kind == LectureHall {
			c.Publishers = 1
		} else {
			c.Publishers = 4
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration <= 0 {
		c.Duration = time.Minute
	}
	if c.Rate <= 0 {
		c.Rate = 2
	}
	if c.PayloadBytes < 16 {
		c.PayloadBytes = 256
	}
	if c.CurveBuckets <= 0 {
		c.CurveBuckets = 12
	}
	return c
}

// CurvePoint is one time bucket of the delivery latency / loss curves.
type CurvePoint struct {
	// StartMS/EndMS bound the bucket, in simulated ms from run start.
	StartMS int64 `json:"start_ms"`
	EndMS   int64 `json:"end_ms"`

	Sent      uint64 `json:"sent"`      // copies scheduled toward receivers
	Delivered uint64 `json:"delivered"` // copies that arrived
	Dropped   uint64 `json:"dropped"`   // copies lost on the link

	P50MS float64 `json:"p50_ms"` // delivery latency quantiles
	P99MS float64 `json:"p99_ms"`
	Loss  float64 `json:"loss"` // dropped / (delivered + dropped)
}

// Result is one scenario run's outcome.  Every field except WallMS is
// a pure function of (Config, code): the determinism gate runs the
// same config twice and requires identical JSON with WallMS cleared.
type Result struct {
	Scenario   Kind  `json:"scenario"`
	Clients    int   `json:"clients"`
	Publishers int   `json:"publishers"`
	Seed       int64 `json:"seed"`
	SimMS      int64 `json:"sim_ms"` // simulated duration

	Published uint64 `json:"published"` // frames published
	Sent      uint64 `json:"sent"`      // per-receiver copies attempted
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`

	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyMeanMS float64 `json:"latency_mean_ms"`
	Loss          float64 `json:"loss"`

	Curve []CurvePoint `json:"curve"`

	// EventHash is a running FNV-1a hash over the ordered network
	// trace (deliveries and drops, with virtual timestamps) — the
	// cheapest byte-identical fingerprint of the whole run.
	EventHash string `json:"event_hash"`

	// WallMS is the real time the run took; excluded from determinism
	// comparisons.
	WallMS int64 `json:"wall_ms"`
}

// run carries one executing scenario's state.  All mutation happens on
// the driving goroutine (inside virtual-clock events), so plain fields
// suffice.
type run struct {
	cfg     Config
	net     *transport.DESNet
	clk     *clock.Virtual
	rng     *rand.Rand // workload randomness, separate from the net's
	startNS int64
	endNS   int64

	hash uint64 // FNV-1a over the trace

	// Run-local counters and the delivery-latency histogram: the totals
	// for Result, and the metrics the run's timeline windows into the
	// latency/loss curves.
	published metrics.Counter
	sent      metrics.Counter
	delivered metrics.Counter
	dropped   metrics.Counter
	joins     uint64
	leaves    uint64

	overall metrics.Histogram
	tl      *timeline.Timeline

	pubs []transport.Conn
	// deliver is r.onDeliver bound once: a method value allocates each
	// time it is taken, and every join attaches one.
	deliver func(transport.Packet)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (r *run) hashBytes(b []byte) {
	h := r.hash
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	r.hash = h
}

func (r *run) hashEvent(ev transport.TraceEvent) {
	var buf [18]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(ev.AtNS))
	binary.LittleEndian.PutUint32(buf[8:], uint32(ev.Size))
	buf[12] = byte(ev.Kind)
	if ev.Unicast {
		buf[13] = 1
	}
	binary.LittleEndian.PutUint32(buf[14:], rtp.SSRCOf(ev.From)^rtp.SSRCOf(ev.To))
	r.hashBytes(buf[:])
}

// setupTimeline creates the run's curve store and schedules one
// SampleNow event at every bucket boundary.  These events are scheduled
// before any workload event, so at a shared instant the virtual clock
// fires the window close first (lowest sequence number wins) and
// boundary traffic lands in the *next* window — the same bucketing the
// old per-bucket histograms used.  Deliveries at the exact session end
// close after the last window and appear only in the totals.
func (r *run) setupTimeline() {
	window := time.Duration(int64(r.cfg.Duration) / int64(r.cfg.CurveBuckets))
	r.tl = timeline.New(timeline.Config{
		Window:    window,
		Retention: r.cfg.CurveBuckets,
		Clock:     r.clk,
	})
	r.tl.TrackCounter("sim_published", &r.published)
	r.tl.TrackCounter("sim_sent", &r.sent)
	r.tl.TrackCounter("sim_delivered", &r.delivered)
	r.tl.TrackCounter("sim_dropped", &r.dropped)
	r.tl.TrackHistogram("sim_delivery_latency_ns", &r.overall)
	var prevDel, prevDrop uint64
	r.tl.TrackFunc("sim_loss", func() float64 {
		del, drop := r.delivered.Load(), r.dropped.Load()
		dDel, dDrop := del-prevDel, drop-prevDrop
		prevDel, prevDrop = del, drop
		if dDel+dDrop == 0 {
			return 0
		}
		return float64(dDrop) / float64(dDel+dDrop)
	})
	r.tl.TrackFunc("sim_subscribers", func() float64 {
		return float64(r.joins) - float64(r.leaves)
	})
	for i := 1; i <= r.cfg.CurveBuckets; i++ {
		at := time.Duration(int64(i) * int64(r.cfg.Duration) / int64(r.cfg.CurveBuckets))
		r.clk.ScheduleFunc(at, func(time.Time) { r.tl.SampleNow() })
	}
}

// Run executes the scenario to completion and returns its Result.
func Run(cfg Config) (Result, error) {
	res, _, err := RunWithTimeline(cfg)
	return res, err
}

// RunWithTimeline is Run, also returning the run's timeline so callers
// (qossim's -timeline flag) can export the full per-window series set
// beyond the curve baked into the Result.
func RunWithTimeline(cfg Config) (Result, *timeline.Timeline, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewVirtual(time.Time{})
	net := transport.NewDESNet(transport.DESNetConfig{
		Seed:        cfg.Seed,
		DefaultLink: cfg.Link,
		Clock:       clk,
	})
	r := &run{
		cfg:     cfg,
		net:     net,
		clk:     clk,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed5eed5eed)),
		startNS: clk.Now().UnixNano(),
		endNS:   clk.Now().Add(cfg.Duration).UnixNano(),
		hash:    fnvOffset,
	}
	r.deliver = r.onDeliver
	// Window-boundary events must be scheduled before any workload event
	// so boundary bucketing is deterministic (see setupTimeline).
	r.setupTimeline()
	net.SetTrace(func(ev transport.TraceEvent) {
		r.hashEvent(ev)
		// Publishers receive each other's multicasts too; only copies
		// bound for subscribers count toward the curves, so Sent,
		// Delivered and Dropped stay mutually consistent.
		if !strings.HasPrefix(ev.To, "sub") {
			return
		}
		switch ev.Kind {
		case transport.TraceDrop, transport.TraceOverflow:
			r.dropped.Inc()
			r.sent.Inc()
		case transport.TraceDeliver:
			r.sent.Inc()
		}
	})

	// Publishers are ordinary handler-mode nodes that ignore inbound
	// traffic (subscribers do not publish, so they receive nothing of
	// their own).
	r.pubs = make([]transport.Conn, cfg.Publishers)
	for i := range r.pubs {
		conn, err := net.AttachHandler(fmt.Sprintf("pub%03d", i), func(transport.Packet) {})
		if err != nil {
			return Result{}, nil, err
		}
		r.pubs[i] = conn
	}

	var joinErr error
	joinClient := func(i int) {
		id := fmt.Sprintf("sub%06d", i)
		_, err := net.AttachHandler(id, r.deliver)
		if err != nil && joinErr == nil {
			joinErr = fmt.Errorf("scenario: join %s: %w", id, err)
		}
		r.joins++
	}

	switch cfg.Kind {
	case FlashCrowd:
		r.setupFlash(joinClient)
	case LectureHall:
		r.setupLecture(joinClient)
	case Churn:
		r.setupChurn()
	case Diurnal:
		r.setupDiurnal(joinClient)
	default:
		return Result{}, nil, fmt.Errorf("scenario: unknown kind %q", cfg.Kind)
	}
	if joinErr != nil {
		return Result{}, nil, joinErr
	}

	wallStart := clock.Wall.Now()
	clk.AdvanceTo(time.Unix(0, r.endNS))
	wall := clock.Wall.Since(wallStart)
	net.Close()

	return r.result(wall), r.tl, nil
}

// onDeliver is every subscriber's packet handler: recover the embedded
// virtual send timestamp and record the delivery latency.
func (r *run) onDeliver(p transport.Packet) {
	if len(p.Data) < 16 {
		return
	}
	sentNS := int64(binary.LittleEndian.Uint64(p.Data[8:16]))
	lat := p.At.UnixNano() - sentNS
	r.delivered.Inc()
	r.overall.Observe(lat)
}

// publish sends one frame from publisher p: sequence number and the
// virtual send instant lead the payload.
func (r *run) publish(p transport.Conn, seq uint64) {
	frame := make([]byte, r.cfg.PayloadBytes)
	binary.LittleEndian.PutUint64(frame[0:], seq)
	binary.LittleEndian.PutUint64(frame[8:], uint64(r.clk.Now().UnixNano()))
	if err := p.Give("", frame); err == nil { // built above, never written again
		r.published.Inc()
	}
}

// startPublisher schedules p's periodic publishing.  rate is a
// function of the current instant so generators can modulate it; a
// zero/negative instantaneous rate pauses for one base interval.
func (r *run) startPublisher(p transport.Conn, rate func(atNS int64) float64) {
	base := time.Duration(float64(time.Second) / r.cfg.Rate)
	var seq uint64
	var step func(now time.Time)
	step = func(now time.Time) {
		if now.UnixNano() >= r.endNS {
			return
		}
		rt := rate(now.UnixNano())
		if rt > 0 {
			seq++
			r.publish(p, seq)
			r.clk.ScheduleFunc(time.Duration(float64(time.Second)/rt), step)
		} else {
			r.clk.ScheduleFunc(base, step)
		}
	}
	// Stagger starts so publishers do not fire in lockstep.
	r.clk.ScheduleFunc(time.Duration(r.rng.Int63n(int64(base))), step)
}

func (r *run) steadyRate(int64) float64 { return r.cfg.Rate }

// setupLecture: the whole hall is seated at t=0, the speakers talk at
// a steady rate for the full session.
func (r *run) setupLecture(join func(int)) {
	for i := 0; i < r.cfg.Clients; i++ {
		join(i)
	}
	for _, p := range r.pubs {
		r.startPublisher(p, r.steadyRate)
	}
}

// setupFlash: publishers broadcast from t=0 while the crowd joins in a
// ramp over the first half of the session — the delivery fan-out grows
// under the publishers' feet.
func (r *run) setupFlash(join func(int)) {
	ramp := r.cfg.Duration / 2
	for i := 0; i < r.cfg.Clients; i++ {
		i := i
		at := time.Duration(float64(ramp) * float64(i) / float64(r.cfg.Clients))
		r.clk.ScheduleFunc(at, func(time.Time) { join(i) })
	}
	for _, p := range r.pubs {
		r.startPublisher(p, r.steadyRate)
	}
}

// setupChurn: the population cycles — every client leaves and rejoins
// on its own period — while a mobility process degrades and restores
// random clients' downlinks (delay up, loss up), as SIR shifts would.
func (r *run) setupChurn() {
	for i := 0; i < r.cfg.Clients; i++ {
		r.churnClient(i)
	}
	for _, p := range r.pubs {
		r.startPublisher(p, r.steadyRate)
	}
	// Mobility: each tick degrades one present client's downlink for a
	// while.  Seeded rng keeps the victim sequence reproducible.
	tick := r.cfg.Duration / 64
	var mob func(now time.Time)
	mob = func(now time.Time) {
		if now.UnixNano() >= r.endNS {
			return
		}
		victim := fmt.Sprintf("sub%06d", r.rng.Intn(r.cfg.Clients))
		bad := r.cfg.Link
		bad.Delay += 50 * time.Millisecond
		bad.Loss = math.Min(1, bad.Loss+0.2)
		for _, p := range r.pubs {
			r.net.SetLink(p.ID(), victim, bad)
		}
		heal := victim
		r.clk.ScheduleFunc(4*tick, func(time.Time) {
			for _, p := range r.pubs {
				r.net.SetLink(p.ID(), heal, r.cfg.Link)
			}
		})
		r.clk.ScheduleFunc(tick, mob)
	}
	r.clk.ScheduleFunc(tick, mob)
}

// churnClient gives client i an on/off membership cycle: present for
// onFor, gone for offFor, repeating.  Phases are rng-spread so the
// population breathes instead of stampeding.
func (r *run) churnClient(i int) {
	id := fmt.Sprintf("sub%06d", i)
	onFor := r.cfg.Duration/4 + time.Duration(r.rng.Int63n(int64(r.cfg.Duration/4)))
	offFor := r.cfg.Duration / 8
	var conn transport.Conn
	var cycle func(now time.Time)
	joinNow := func() {
		c, err := r.net.AttachHandler(id, r.deliver)
		if err == nil {
			conn = c
			r.joins++
		}
	}
	cycle = func(now time.Time) {
		if now.UnixNano() >= r.endNS {
			return
		}
		if conn != nil {
			conn.Close()
			conn = nil
			r.leaves++
			r.clk.ScheduleFunc(offFor, cycle)
		} else {
			joinNow()
			r.clk.ScheduleFunc(onFor, cycle)
		}
	}
	// Spread initial joins over the first 5% of the session.
	r.clk.ScheduleFunc(time.Duration(r.rng.Int63n(int64(r.cfg.Duration/20)+1)), func(now time.Time) {
		joinNow()
		r.clk.ScheduleFunc(onFor, cycle)
	})
}

// setupDiurnal: full population, publish rate swinging sinusoidally
// between 0.2x and 1.8x the configured rate over the session — a day's
// load compressed into one run.
func (r *run) setupDiurnal(join func(int)) {
	for i := 0; i < r.cfg.Clients; i++ {
		join(i)
	}
	span := float64(r.endNS - r.startNS)
	for _, p := range r.pubs {
		r.startPublisher(p, func(atNS int64) float64 {
			phase := 2 * math.Pi * float64(atNS-r.startNS) / span
			return r.cfg.Rate * (1 + 0.8*math.Sin(phase))
		})
	}
}

func (r *run) result(wall time.Duration) Result {
	snap := r.overall.Snapshot()
	res := Result{
		Scenario:      r.cfg.Kind,
		Clients:       r.cfg.Clients,
		Publishers:    r.cfg.Publishers,
		Seed:          r.cfg.Seed,
		SimMS:         r.cfg.Duration.Milliseconds(),
		Published:     r.published.Load(),
		Sent:          r.sent.Load(),
		Delivered:     r.delivered.Load(),
		Dropped:       r.dropped.Load(),
		LatencyP50MS:  snap.Quantile(0.50) / 1e6,
		LatencyP90MS:  snap.Quantile(0.90) / 1e6,
		LatencyP99MS:  snap.Quantile(0.99) / 1e6,
		LatencyMeanMS: snap.Mean() / 1e6,
		EventHash:     fmt.Sprintf("%016x", r.hash),
		WallMS:        wall.Milliseconds(),
	}
	if total := res.Delivered + res.Dropped; total > 0 {
		res.Loss = float64(res.Dropped) / float64(total)
	}
	res.Curve = r.curve()
	return res
}

// curve materializes the CurvePoints as a view over the run's
// timeline: counter windows supply the per-bucket traffic, histogram
// windows the windowed latency quantiles.
func (r *run) curve() []CurvePoint {
	byName := make(map[string][]timeline.Point)
	for _, sd := range r.tl.Query(timeline.Query{Series: []string{
		"sim_sent", "sim_delivered", "sim_dropped", "sim_delivery_latency_ns",
	}}) {
		byName[sd.Name] = sd.Points
	}
	sent, delivered, dropped := byName["sim_sent"], byName["sim_delivered"], byName["sim_dropped"]
	lat := byName["sim_delivery_latency_ns"]
	curve := make([]CurvePoint, 0, len(sent))
	for i := range sent {
		cp := CurvePoint{
			StartMS:   (sent[i].StartNS - r.startNS) / 1e6,
			EndMS:     (sent[i].EndNS - r.startNS) / 1e6,
			Sent:      uint64(sent[i].Value),
			Delivered: uint64(delivered[i].Value),
			Dropped:   uint64(dropped[i].Value),
			P50MS:     lat[i].P50 / 1e6,
			P99MS:     lat[i].P99 / 1e6,
		}
		if total := cp.Delivered + cp.Dropped; total > 0 {
			cp.Loss = float64(cp.Dropped) / float64(total)
		}
		curve = append(curve, cp)
	}
	return curve
}
