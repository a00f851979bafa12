package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// chat-lossy-repair: open loop at a fixed publish rate.  Four wired
// receivers run the gap-repair loop against an archiving coordinator;
// the publisher -> receiver links lose 5% of frames, delay them 2 ms
// with 1 ms jitter and duplicate 1%; the coordinator's links are clean.
const (
	lossyRate = 2000 // publishes per second
	// Publishes are due in bursts of lossyBurst every lossyTick: this
	// box's timers fire about 1.1 ms late whatever the interval, so a
	// generator cannot keep a 500 us schedule by sleeping, and spinning
	// would put its own burn into cpu_us_per_delivery.
	lossyTick      = 2 * time.Millisecond
	lossyBurst     = lossyRate * int(lossyTick) / int(time.Second)
	lossyReceivers = 4
	lossyTrailer   = 64 // uncounted publishes that flush tail gaps
	lossyRing      = 8192
	lossyWarmup    = 256
	lossyStall     = 40 * time.Millisecond
	// Deadline for the last counted op.  Repair converges in tens of
	// milliseconds; the margin is for the box, which now and then
	// freezes a whole process for seconds.
	lossyDrain = 10 * time.Second
	// The generator is late when it starts a burst more than five ticks
	// after its due time: gross starvation, not timer slack.
	lossyMaxLateUS = 5 * float64(lossyTick/time.Microsecond)
)

var lossyLink = transport.Link{Loss: 0.05, Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Duplicate: 0.01}

type chatLossy struct {
	seed  int64
	texts []string

	net   *transport.SimNet
	pub   *core.Client
	recv  [lossyReceivers]*core.Client
	coord *core.Coordinator

	published uint64 // every publish so far; message g is applied at r once r's count exceeds g
	pubErrs   uint64
	missed    uint64 // counted ops not applied everywhere by the drain deadline
	late      lateness
	invalid   string

	c0, c1         map[string]uint64 // repair counters around the timed phase
	lost, replayed uint64
	dups           uint64
	abandoned0     uint64
}

func newChatLossy(seed int64) *chatLossy {
	return &chatLossy{seed: seed, abandoned0: metrics.C(metrics.CtrRepairAbandoned).Load()}
}

func (w *chatLossy) inputDigest() string {
	h := sha256.New()
	for _, t := range w.texts {
		h.Write([]byte(t))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (w *chatLossy) generate() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.texts = make([]string, lossyRing)
	for i := range w.texts {
		w.texts[i] = randText(rng, fmt.Sprintf("l%d ", i))
	}
	return nil
}

func (w *chatLossy) setup() error {
	w.net = transport.NewSimNet(transport.SimNetConfig{Seed: w.seed, InboxDepth: 4096})
	cconn, err := w.net.Attach("coord")
	if err != nil {
		return err
	}
	w.coord = core.NewCoordinator(cconn, session.Group{Objective: "bench"})
	pconn, err := w.net.Attach("pub")
	if err != nil {
		return err
	}
	w.pub = core.NewClient(pconn, core.Config{})
	w.pub.Chat().MaxLines = chatMaxLines
	for r := range w.recv {
		id := fmt.Sprintf("recv-%d", r)
		conn, err := w.net.Attach(id)
		if err != nil {
			return err
		}
		w.recv[r] = core.NewClient(conn, core.Config{Repair: &core.RepairOptions{
			Coordinator: "coord", StallTimeout: lossyStall, Seed: w.seed + int64(r),
			// Room for two seconds of frames parked behind a gap: a stall of
			// the whole box must not turn into evictions and fresh gaps.
			MaxPending: 4096}})
		w.recv[r].Chat().MaxLines = chatMaxLines
		w.net.SetLink("pub", id, lossyLink)
	}
	w.run(lossyWarmup, nil)
	if w.minApplied() == 0 {
		return fmt.Errorf("chat-lossy-repair: nothing was delivered during warm-up")
	}
	// A warm-up op still under repair is not a failure: messages are
	// tracked by global index, so the oracle sees it land later.
	w.missed, w.late = 0, lateness{}
	return nil
}

func (w *chatLossy) close() {
	if w.net == nil {
		return
	}
	if w.pub != nil {
		w.pub.Close()
	}
	for _, c := range w.recv {
		if c != nil {
			c.Close()
		}
	}
	if w.coord != nil {
		w.coord.Close()
	}
	w.net.Close()
}

func (w *chatLossy) minApplied() uint64 {
	min := ^uint64(0)
	for _, c := range w.recv {
		if n := c.Stats().EventsReceived; n < min {
			min = n
		}
	}
	return min
}

func (w *chatLossy) sumApplied() (n uint64) {
	for _, c := range w.recv {
		n += c.Stats().EventsReceived
	}
	return
}

func (w *chatLossy) publish() {
	if err := w.pub.Say(w.texts[w.published%lossyRing], ""); err != nil {
		w.pubErrs++
	}
	w.published++
}

// run publishes n counted ops on the fixed schedule, then the trailer,
// while a poller stamps each counted op when every receiver's in-order
// applied count has passed it.  Latency runs from the op's due time.
func (w *chatLossy) run(n int, ph *phase) {
	dueAt := func(i int) time.Duration { return time.Duration(i/lossyBurst) * lossyTick }
	first := w.published
	done := make([]int64, n) // ns since start; 0 = not yet
	start := time.Now()
	var pubCount atomic.Uint64 // ops of this run published so far
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sl *slicer
	every := time.Duration(0)
	if ph != nil {
		every = ph.every
		sl = newSlicer(every, start, w.sumApplied())
	}
	wg.Add(1)
	go func() { // the poller
		defer wg.Done()
		stamped := 0
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			now := time.Now()
			if applied := w.minApplied(); applied > first {
				for lim := int(min(applied-first, uint64(n))); stamped < lim; stamped++ {
					done[stamped] = int64(now.Sub(start))
				}
			}
			if sl != nil {
				before := len(sl.rates)
				sl.tick(now, w.sumApplied())
				if len(sl.rates) > before {
					w.late.backlog = append(w.late.backlog, float64(pubCount.Load())-float64(stamped))
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	for i := 0; i < n+lossyTrailer; i++ {
		due := start.Add(dueAt(i))
		now := time.Now()
		if now.Before(due) {
			time.Sleep(due.Sub(now))
			now = time.Now()
		}
		if i < n && ph != nil {
			w.late.lateUS = append(w.late.lateUS, float64(now.Sub(due).Nanoseconds())/1e3)
		}
		w.publish()
		pubCount.Add(1)
	}
	lastDue := start.Add(dueAt(n - 1))
	for time.Since(lastDue) < lossyDrain && w.minApplied() < first+uint64(n) {
		pollSleep()
	}
	time.Sleep(time.Millisecond) // one more poll interval, so the poller stamps the tail
	close(stop)
	wg.Wait()
	for i, d := range done {
		if d == 0 {
			w.missed++
			continue
		}
		if ph != nil {
			ph.completeUS = append(ph.completeUS, float64((time.Duration(d)-dueAt(i)).Nanoseconds())/1e3)
		}
	}
	if ph != nil {
		ph.slices = sl.rates
	}
}

func (w *chatLossy) netTotals() (bytes, dropped, delivered uint64) {
	for _, id := range w.net.NodeIDs() {
		st := w.net.Stats(id)
		bytes += st.Bytes
		dropped += st.Dropped
		if id != "coord" && id != "pub" {
			delivered += st.Delivered
		}
	}
	return
}

func (w *chatLossy) timed(d time.Duration, ph *phase) {
	a0, p0 := w.sumApplied(), w.published
	b0, lost0, del0 := w.netTotals()
	sent0 := w.net.Stats("coord").Sent
	w.c0 = metrics.Counters()
	w.late = lateness{}
	w.run(int(d.Seconds()*lossyRate), ph)
	w.c1 = metrics.Counters()
	b1, lost1, del1 := w.netTotals()
	ph.ops, ph.deliveries, ph.wireBytes = w.published-p0, w.sumApplied()-a0, b1-b0
	w.lost, w.replayed = lost1-lost0, w.net.Stats("coord").Sent-sent0
	w.dups = (del1 - del0) - ph.deliveries
	if ok, why := w.late.valid(lossyMaxLateUS); !ok {
		w.invalid = why
	}
}

func (w *chatLossy) latency(time.Duration) []float64 { return nil }

func (w *chatLossy) check() verdict {
	v := verdict{attempted: w.published, failed: w.pubErrs + w.missed, invalid: w.invalid}
	if w.missed > 0 {
		v.notes = append(v.notes, fmt.Sprintf("%d counted ops missed a receiver by the drain deadline", w.missed))
	}
	// Everything before the last trailer must be applied everywhere.
	settled := w.published - lossyTrailer
	v.expected = lossyReceivers * settled
	before := v.failed
	for _, c := range w.recv {
		st := c.Stats()
		v.applied += min(st.EventsReceived, settled)
		if st.EventsReceived > w.published {
			v.failf(st.EventsReceived-w.published, "%s applied %d of %d published: duplicates reached the application", c.ID(), st.EventsReceived, w.published)
		}
		if st.DecodeErrors != 0 || st.EventsFiltered != 0 {
			v.failf(st.DecodeErrors+st.EventsFiltered, "%s decode errors %d filtered %d", c.ID(), st.DecodeErrors, st.EventsFiltered)
		}
		// In order, gap-free, unduplicated: the retained chat lines must
		// be consecutive entries of the text ring.  Each text starts with
		// its ring index, so the check does not depend on reading the
		// counters and the lines at the same instant (the last trailer's
		// gaps may still be under repair).
		prev := -1
		for _, ln := range c.Chat().Lines() {
			var idx int
			if _, err := fmt.Sscanf(ln.Text, "l%d ", &idx); err != nil || idx >= lossyRing || ln.Text != w.texts[idx] ||
				(prev >= 0 && idx != (prev+1)%lossyRing) {
				v.failf(1, "%s chat line %.12q out of order, duplicated or after a gap (previous index %d)", c.ID(), ln.Text, prev)
				break
			}
			prev = idx
		}
	}
	if n := metrics.C(metrics.CtrRepairAbandoned).Load() - w.abandoned0; n != 0 {
		v.failf(n, "repair abandoned %d gaps", n)
	}
	for _, id := range w.net.NodeIDs() {
		if st := w.net.Stats(id); st.Overflow != 0 {
			v.failf(st.Overflow, "%s inbox overflow %d", id, st.Overflow)
		}
	}
	v.wrong = v.failed > before
	return v
}

func (w *chatLossy) counters(ph *phase, lay layers) {
	for _, name := range []string{metrics.CtrRepairRequests, metrics.CtrRepairSuccess, metrics.CtrRepairAbandoned} {
		lay[name] = float64(w.c1[name] - w.c0[name])
	}
	if w.lost > 0 {
		lay["repair.replayed_frames_per_lost_frame"] = float64(w.replayed) / float64(w.lost)
	}
	lay["core.dup_discarded"] = float64(w.dups)
	lay["bench.gen_late_p99_us"], _ = percentile(w.late.lateUS, 0.99)
	for _, b := range w.late.backlog {
		lay["bench.backlog_max"] = max(lay["bench.backlog_max"], b)
	}
	netCounters(w.net, lay)
}

func (w *chatLossy) ladder(tr *tracer, lay layers) float64 {
	pms := make([]*profile.Manager, 0, lossyReceivers+1)
	for _, c := range w.recv {
		pms = append(pms, c.Profile())
	}
	pms = append(pms, w.pub.Profile()) // stands in for the coordinator's port
	kit, err := newPathKit(0, cloneManagers(pms))
	if err != nil {
		return 0
	}
	defer kit.close()
	chats := make([]*apps.ChatArea, lossyReceivers)
	bufs := make([]*session.OrderBuffer, lossyReceivers)
	for r := range chats {
		chats[r] = apps.NewChatArea()
		chats[r].MaxLines = chatMaxLines
		for i := 0; i < chatMaxLines; i++ {
			chats[r].Apply("pub", apps.EncodeSay(w.texts[i]))
		}
		bufs[r] = session.NewOrderBuffer(0)
	}
	const sampleOps = 256
	var sample []*message.Message
	deliveries := 0
	for op := 0; op < sampleOps; op++ {
		m := chatMessage(&chatOp{say: true, text: w.texts[op]}, uint32(op+1))
		if op < 64 {
			sample = append(sample, m)
		}
		tr.do("op", op, func() {
			kit.walk(tr, op, m, nil, func(r int, mm *message.Message) {
				if r >= lossyReceivers {
					return // the coordinator archives; it does not apply
				}
				tr.do("session.order_push", op, func() { bufs[r].Push(session.Event{Seq: uint64(mm.Seq), Sender: mm.Sender}) })
				tr.do("apps.chat_apply", op, func() { chats[r].Apply(mm.Sender, mm.Body) })
				deliveries++
			})
		})
	}
	ladderNS := tr.ladderNS("op")
	// A frame that overtakes its predecessor parks, and the
	// predecessor's arrival releases both.
	gap := session.NewOrderBuffer(0)
	for op := 0; op < sampleOps; op++ {
		tr.do("session.order_push_gap", op, func() { gap.Push(session.Event{Seq: uint64(2*op + 2), Sender: "pub"}) })
		gap.Push(session.Event{Seq: uint64(2*op + 1), Sender: "pub"})
	}
	kit.commonLadder(tr, sample, lay)
	kit.pathMetrics(tr, lay)
	lay["session.order_push_ns"] = tr.ns("session.order_push")
	lay["session.order_push_gap_ns"] = tr.ns("session.order_push_gap")
	lay["apps.chat_apply_ns"] = tr.ns("apps.chat_apply")
	if deliveries == 0 {
		return 0
	}
	return ladderNS / 1e3 / float64(deliveries)
}
