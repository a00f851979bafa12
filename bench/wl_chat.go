package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// chat-wired: one publisher and eight wired receivers on a zero-delay
// SimNet.  Eight topics; receiver r subscribes to topics r..r+3 (mod 8),
// so every message is applied by exactly four receivers and filtered by
// the other four.
const (
	chatReceivers = 8
	chatTopics    = 8
	chatSubs      = 4       // topics per receiver == receivers per topic
	chatRing      = 1 << 16 // pre-generated ops, replayed in order
	chatWindow    = 1024    // frames the publisher may run ahead
	chatMaxLines  = 256
	chatStrokeIDs = 1024
	chatWarmup    = 4096
)

// chatOp is one pre-generated publish.
type chatOp struct {
	say    bool
	text   string
	stroke apps.Stroke
	sel    string
	topic  int
}

// subscribed reports by construction whether receiver r takes topic t.
func subscribed(r, t int) bool { return (t-r+chatTopics)%chatTopics < chatSubs }

// genChatOps materialises the op ring: 75% Say (48-96 B) / 25% Draw;
// 90% of selectors come from 32 hot strings (8 topics x 4 spellings),
// 10% are strings no earlier op used.  The ring holds more cold strings
// than the selector cache has entries, so a cold string met again on a
// later lap has long been evicted.
func genChatOps(seed int64, n int) []chatOp {
	rng := rand.New(rand.NewSource(seed))
	hot := func(t, v int) string {
		a := fmt.Sprintf("sub-t%d", t)
		switch v {
		case 0:
			return a + " == true"
		case 1:
			return a + " == true and exists(" + a + ")"
		case 2:
			return a + " in [true]"
		default:
			return "exists(" + a + ") and " + a + " != false"
		}
	}
	nonce := rng.Int63n(1 << 40)
	ops := make([]chatOp, n)
	draws := 0
	for i := range ops {
		op := &ops[i]
		op.topic = rng.Intn(chatTopics)
		if rng.Float64() < 0.10 {
			op.sel = fmt.Sprintf("sub-t%d == true or nonce == %d", op.topic, nonce+int64(i))
		} else {
			op.sel = hot(op.topic, rng.Intn(4))
		}
		if rng.Float64() < 0.75 {
			op.say = true
			op.text = randText(rng, fmt.Sprintf("c%d ", i))
		} else {
			pts := make([]apps.Point, 4+rng.Intn(5))
			for j := range pts {
				pts[j] = apps.Point{X: int16(rng.Intn(1024)), Y: int16(rng.Intn(768))}
			}
			op.stroke = apps.Stroke{ID: uint32(draws%chatStrokeIDs) + 1,
				Color: uint8(rng.Intn(8)), Width: uint8(1 + rng.Intn(4)), Points: pts}
			draws++
		}
	}
	return ops
}

func digestChatOps(ops []chatOp) string {
	h := sha256.New()
	for i := range ops {
		op := &ops[i]
		fmt.Fprintf(h, "%t|%s|%s|%d|", op.say, op.text, op.sel, op.topic)
		binary.Write(h, binary.LittleEndian, op.stroke.ID)
		binary.Write(h, binary.LittleEndian, op.stroke.Points)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

type chatWired struct {
	seed int64
	ops  []chatOp
	// applyPrefix[r][p] = ops among ring[0:p] that receiver r applies.
	applyPrefix [chatReceivers][]uint32

	net  *transport.SimNet
	pub  *core.Client
	recv [chatReceivers]*core.Client

	published uint64 // ops published so far; ring position = published % len(ops)
	pubErrs   uint64

	cache0, cache1 selector.CacheStats
	filtered       uint64 // filtered during the last timed phase
}

func newChatWired(seed int64) *chatWired { return &chatWired{seed: seed} }

func (w *chatWired) inputDigest() string { return digestChatOps(w.ops) }

func (w *chatWired) generate() error {
	w.ops = genChatOps(w.seed, chatRing)
	return nil
}

func (w *chatWired) setup() error {
	for r := range w.applyPrefix {
		pre := make([]uint32, len(w.ops)+1)
		for i := range w.ops {
			pre[i+1] = pre[i]
			if subscribed(r, w.ops[i].topic) {
				pre[i+1]++
			}
		}
		w.applyPrefix[r] = pre
	}
	w.net = transport.NewSimNet(transport.SimNetConfig{Seed: w.seed, InboxDepth: 4096})
	attach := func(id string) (*core.Client, error) {
		conn, err := w.net.Attach(id)
		if err != nil {
			return nil, err
		}
		c := core.NewClient(conn, core.Config{})
		c.Chat().MaxLines = chatMaxLines
		return c, nil
	}
	var err error
	if w.pub, err = attach("pub"); err != nil {
		return err
	}
	for r := range w.recv {
		if w.recv[r], err = attach(fmt.Sprintf("recv-%d", r)); err != nil {
			return err
		}
		w.recv[r].Profile().Update(func(p *profile.Profile) {
			for t := 0; t < chatTopics; t++ {
				if subscribed(r, t) {
					p.Interests.SetBool(fmt.Sprintf("sub-t%d", t), true)
				}
			}
		})
	}
	for i := 0; i < chatWarmup; i++ {
		w.publish()
	}
	if !waitUntil(10*time.Second, w.drained) {
		return fmt.Errorf("chat-wired: warm-up did not drain")
	}
	return nil
}

func (w *chatWired) close() {
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
	w.net.Close()
}

func (w *chatWired) publish() {
	op := &w.ops[w.published%uint64(len(w.ops))]
	var err error
	if op.say {
		err = w.pub.Say(op.text, op.sel)
	} else {
		err = w.pub.Draw(op.stroke, op.sel)
	}
	if err != nil {
		w.pubErrs++
	}
	w.published++
}

// minProcessed is the slowest receiver's count of frames handled
// (applied or filtered): the window credit signal.
func (w *chatWired) minProcessed() uint64 {
	min := ^uint64(0)
	for _, c := range w.recv {
		st := c.Stats()
		if n := st.EventsReceived + st.EventsFiltered; n < min {
			min = n
		}
	}
	return min
}

func (w *chatWired) drained() bool { return w.minProcessed() >= w.published }

func (w *chatWired) applied() (applied, filtered uint64) {
	for _, c := range w.recv {
		st := c.Stats()
		applied += st.EventsReceived
		filtered += st.EventsFiltered
	}
	return
}

func (w *chatWired) timed(d time.Duration, ph *phase) {
	a0, f0 := w.applied()
	p0, b0 := w.published, netBytes(w.net)
	w.cache0 = selector.DefaultCache().Stats()
	start := time.Now()
	sl := newSlicer(ph.every, start, a0)
	for time.Since(start) < d {
		credit := chatWindow - int(w.published-w.minProcessed())
		if credit <= 0 {
			pollSleep()
		}
		for ; credit > 0; credit-- {
			w.publish()
		}
		a, _ := w.applied()
		sl.tick(time.Now(), a)
	}
	waitUntil(10*time.Second, w.drained)
	a1, f1 := w.applied()
	w.cache1 = selector.DefaultCache().Stats()
	w.filtered = f1 - f0
	ph.deliveries, ph.ops = a1-a0, w.published-p0
	ph.slices, ph.wireBytes = sl.rates, netBytes(w.net)-b0
}

// latency publishes with one op outstanding and spin-polls until the
// four subscribed receivers have handled it.
func (w *chatWired) latency(d time.Duration) []float64 {
	var out []float64
	for start := time.Now(); time.Since(start) < d; {
		topic := w.ops[w.published%uint64(len(w.ops))].topic
		t0 := time.Now()
		w.publish()
		spinUntil(5*time.Second, func() bool {
			for r, c := range w.recv {
				if !subscribed(r, topic) {
					continue
				}
				if st := c.Stats(); st.EventsReceived+st.EventsFiltered < w.published {
					return false
				}
			}
			return true
		})
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
		waitUntil(5*time.Second, w.drained)
	}
	return out
}

// expectApplied is how many of the first n published ops receiver r
// applies, by construction of the topic ring.
func (w *chatWired) expectApplied(r int, n uint64) uint64 {
	ring := uint64(len(w.ops))
	pre := w.applyPrefix[r]
	return n/ring*uint64(pre[ring]) + uint64(pre[n%ring])
}

func (w *chatWired) check() verdict {
	v := verdict{attempted: w.published, lossless: true}
	v.failed = w.pubErrs
	if !waitUntil(10*time.Second, w.drained) {
		v.failf(w.published-w.minProcessed(), "drain deadline: %d ops unprocessed", w.published-w.minProcessed())
	}
	ring := uint64(len(w.ops))
	for r, c := range w.recv {
		st := c.Stats()
		want := w.expectApplied(r, w.published)
		v.expected += want
		v.applied += min(st.EventsReceived, want)
		if st.EventsReceived != want {
			v.failf(absDiff(st.EventsReceived, want), "%s applied %d, oracle %d", c.ID(), st.EventsReceived, want)
		}
		if wantF := w.published - want; st.EventsFiltered != wantF {
			v.failf(absDiff(st.EventsFiltered, wantF), "%s filtered %d, oracle %d", c.ID(), st.EventsFiltered, wantF)
		}
		if st.DecodeErrors != 0 {
			v.failf(st.DecodeErrors, "%s decode errors %d", c.ID(), st.DecodeErrors)
		}
		// In order, gap-free, no duplicates: the retained chat tail must
		// be exactly the last lines the oracle says r applies.
		var wantTail []string
		strokes := make(map[uint32]bool)
		for i := w.published; i > 0; i-- {
			op := &w.ops[(i-1)%ring]
			if !subscribed(r, op.topic) {
				continue
			}
			if op.say && len(wantTail) < chatMaxLines {
				wantTail = append(wantTail, op.text)
			}
			if !op.say {
				strokes[op.stroke.ID] = true
			}
			if w.published-i >= ring && len(wantTail) == chatMaxLines {
				break // a full lap has shown every stroke ID r can see
			}
		}
		lines := c.Chat().Lines()
		if len(lines) != len(wantTail) {
			v.failf(1, "%s chat tail %d lines, oracle %d", c.ID(), len(lines), len(wantTail))
		} else {
			for i, ln := range lines {
				if ln.Text != wantTail[len(wantTail)-1-i] || ln.Sender != w.pub.ID() {
					v.failf(1, "%s chat tail line %d out of order or duplicated", c.ID(), i)
					break
				}
			}
		}
		if got := c.Whiteboard().Len(); got != len(strokes) {
			v.failf(1, "%s whiteboard %d strokes, oracle %d", c.ID(), got, len(strokes))
		}
	}
	v.failOnNetLoss(w.net)
	return v
}

func (w *chatWired) counters(ph *phase, lay layers) {
	hits, misses := w.cache1.Hits-w.cache0.Hits, w.cache1.Misses-w.cache0.Misses
	if hits+misses > 0 {
		lay["selector.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if ph.deliveries > 0 {
		lay["core.filtered_per_delivery"] = float64(w.filtered) / float64(ph.deliveries)
	}
	netCounters(w.net, lay)
}

// netCounters adds a SimNet's overflow and link-drop totals.
func netCounters(n *transport.SimNet, lay layers) {
	for _, id := range n.NodeIDs() {
		st := n.Stats(id)
		lay["transport.inbox_overflow"] += float64(st.Overflow)
		lay["transport.link_dropped"] += float64(st.Dropped)
	}
	lay["dispatch.queue_drops"] = float64(metrics.C(metrics.CtrDispatchQueueDrops).Load())
}

func (w *chatWired) ladder(tr *tracer, lay layers) float64 {
	pms := make([]*profile.Manager, len(w.recv))
	for r, c := range w.recv {
		pms[r] = c.Profile()
	}
	kit, err := newPathKit(0, cloneManagers(pms))
	if err != nil {
		return 0
	}
	defer kit.close()
	chats := make([]*apps.ChatArea, len(w.recv))
	boards := make([]*apps.Whiteboard, len(w.recv))
	for r := range chats {
		chats[r] = apps.NewChatArea()
		chats[r].MaxLines = chatMaxLines
		for i := 0; i < chatMaxLines; i++ { // as full as a live client's
			chats[r].Apply("pub", apps.EncodeSay(w.ops[i].text))
		}
		boards[r] = apps.NewWhiteboard()
	}
	const sampleOps = 512
	var sample []*message.Message
	deliveries := 0
	for op := 0; op < sampleOps; op++ {
		o := &w.ops[(w.published+uint64(op))%uint64(len(w.ops))]
		m := chatMessage(o, uint32(op+1))
		if op < 64 {
			sample = append(sample, m)
		}
		tr.do("op", op, func() {
			deliveries += kit.walk(tr, op, m, nil, func(r int, mm *message.Message) {
				if o.say {
					tr.do("apps.chat_apply", op, func() { chats[r].Apply(mm.Sender, mm.Body) })
				} else {
					tr.do("apps.whiteboard_apply", op, func() { boards[r].Apply(mm.Body) })
				}
			})
		})
	}
	ladderNS := tr.ladderNS("op")
	kit.commonLadder(tr, sample, lay)
	kit.pathMetrics(tr, lay)
	lay["apps.chat_apply_ns"] = tr.ns("apps.chat_apply")
	// The publisher side of the real pipeline, one call at a time.
	for op := 0; op < sampleOps; op++ {
		if o := &w.ops[w.published%uint64(len(w.ops))]; o.say {
			tr.do("core.say", op, func() { w.publish() })
		} else {
			w.publish()
		}
		if op%256 == 255 {
			waitUntil(5*time.Second, w.drained)
		}
	}
	waitUntil(5*time.Second, w.drained)
	lay["core.say_ns"] = tr.ns("core.say")
	if deliveries == 0 {
		return 0
	}
	return ladderNS / 1e3 / float64(deliveries)
}

// chatMessage builds the message core.Client.Say/Draw would publish
// for op, through public constructors only.
func chatMessage(o *chatOp, seq uint32) *message.Message {
	m := &message.Message{Kind: message.KindEvent, Sender: "pub", Seq: seq,
		Timestamp: time.Now(), Selector: o.sel}
	if o.say {
		m.Attrs = selector.Attributes{
			message.AttrApp:   selector.S(apps.AppChat),
			message.AttrMedia: selector.S("text"),
			message.AttrSize:  selector.N(float64(len(o.text))),
			"lamport":         selector.N(float64(seq)),
		}
		m.Body = apps.EncodeSay(o.text)
	} else {
		m.Attrs = selector.Attributes{
			message.AttrApp:   selector.S(apps.AppWhiteboard),
			message.AttrMedia: selector.S("stroke"),
			"lamport":         selector.N(float64(seq)),
		}
		m.Body = apps.EncodeStroke(o.stroke)
	}
	return m
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
