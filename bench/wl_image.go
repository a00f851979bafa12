package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// image-tiered: the paper's Fig. 3/6-10 scenario.  One wired publisher
// shares 256x256 progressive images; three wired receivers accept
// 16/8/4 packets according to their SNMP-sampled host state; a base
// station collects each share, re-encodes it and serves six wireless
// clients, two in each of the image / sketch / text tiers.
const (
	imgSide      = 256
	imgPool      = 8 // 6 gray + 2 colour, fixed content; the seed picks the order
	imgPackets   = 16
	imgMTU       = 1400
	imgRing      = 4096 // pre-generated share picks
	imgAdaptEach = 8    // AdaptOnce on the wired receivers every this many shares
	imgWarmup    = 8
	imgSel       = "wants-images == true"
	imgDeliv     = 9 // recipients per share: 3 wired + 6 wireless
)

var (
	// Wired receiver r's host reports these page-fault rates (CPU load
	// 20%), which the paper's Fig. 6 mapping turns into these budgets.
	imgPageFaults = [3]float64{20, 48, 65}
	imgBudgets    = [3]int{16, 8, 4}
	// Wireless client i sits at this distance; with the explicit
	// thresholds below the SIRs put two clients in each tier.
	imgDistances  = [6]float64{20, 22, 40, 44, 80, 88}
	imgTiers      = [6]radio.Tier{radio.TierImage, radio.TierImage, radio.TierSketch, radio.TierSketch, radio.TierText, radio.TierText}
	imgThresholds = radio.Thresholds{ImageDB: -7, SketchDB: -17, TextDB: -30}
)

type imageTiered struct {
	seed    int64
	rasters [imgPool]*wavelet.Image // gray originals (nil for colour)
	pool    [imgPool]*media.Object
	picks   []uint8 // share n uses pool[picks[n % len]]: shuffled 8-cycles
	names   []string

	wiredNet, radioNet *transport.SimNet
	pub                *core.Client
	wired              [3]*core.Client
	monitors           [3]*hostagent.Monitor
	wireless           [6]*core.Client
	bs                 *basestation.BaseStation

	shares  uint64 // shares published so far
	failed  uint64 // shares that failed a per-share oracle
	notes   []string
	adaptUS []float64
}

func newImageTiered(seed int64) *imageTiered { return &imageTiered{seed: seed} }

func (w *imageTiered) inputDigest() string {
	h := sha256.New()
	h.Write(w.picks)
	for _, o := range w.pool {
		h.Write(o.Data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (w *imageTiered) generate() error {
	grays := []*wavelet.Image{
		wavelet.Medical(imgSide, imgSide, 1), wavelet.Medical(imgSide, imgSide, 2),
		wavelet.Medical(imgSide, imgSide, 3), wavelet.Blocks(imgSide, imgSide, 16, 4),
		wavelet.Blocks(imgSide, imgSide, 32, 5), wavelet.Circles(imgSide, imgSide),
	}
	for i, im := range grays {
		obj, err := media.EncodeImage(im, fmt.Sprintf("gray scene %d", i))
		if err != nil {
			return err
		}
		w.rasters[i], w.pool[i] = im, obj
	}
	for i := len(grays); i < imgPool; i++ {
		obj, err := media.EncodeColorImage(wavelet.ColorScene(imgSide, imgSide, int64(i)), fmt.Sprintf("colour scene %d", i))
		if err != nil {
			return err
		}
		w.pool[i] = obj
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.picks = make([]uint8, 0, imgRing)
	for len(w.picks) < imgRing {
		for _, p := range rng.Perm(imgPool) {
			w.picks = append(w.picks, uint8(p))
		}
	}
	w.names = make([]string, imgRing)
	for i := range w.names {
		w.names[i] = fmt.Sprintf("img-%d", i)
	}
	return nil
}

func (w *imageTiered) setup() error {
	w.wiredNet = transport.NewSimNet(transport.SimNetConfig{Seed: w.seed, InboxDepth: 4096})
	w.radioNet = transport.NewSimNet(transport.SimNetConfig{Seed: w.seed + 1, InboxDepth: 4096})
	attach := func(net *transport.SimNet, id string, cfg core.Config) (*core.Client, error) {
		conn, err := net.Attach(id)
		if err != nil {
			return nil, err
		}
		cfg.MTU = imgMTU
		c := core.NewClient(conn, cfg)
		c.Profile().SetInterest("wants-images", selector.B(true))
		c.Inbox().MaxItems = 8
		return c, nil
	}
	var err error
	if w.pub, err = attach(w.wiredNet, "pub", core.Config{}); err != nil {
		return err
	}
	for r := range w.wired {
		host := hostagent.NewHost(fmt.Sprintf("host-%d", r))
		host.Set(hostagent.ParamCPULoad, 20)
		host.Set(hostagent.ParamPageFaults, imgPageFaults[r])
		w.monitors[r] = &hostagent.Monitor{Client: snmp.NewClient(
			&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(host)}, snmp.V2c, "")}
		if w.wired[r], err = attach(w.wiredNet, fmt.Sprintf("wired-%d", r), core.Config{Monitor: w.monitors[r]}); err != nil {
			return err
		}
	}
	bsWired, err := w.wiredNet.Attach("bs")
	if err != nil {
		return err
	}
	bsRF, err := w.radioNet.Attach("bs")
	if err != nil {
		return err
	}
	w.bs = basestation.New("bs", bsWired, bsRF, radio.NewChannel(radio.Params{}),
		basestation.Config{Thresholds: imgThresholds})
	for i := range w.wireless {
		id := fmt.Sprintf("wl-%d", i)
		if w.wireless[i], err = attach(w.radioNet, id, core.Config{}); err != nil {
			return err
		}
		p := profile.New(id)
		p.Interests.SetBool("wants-images", true)
		if _, err := w.bs.Join(p, imgDistances[i], 1); err != nil {
			return err
		}
	}
	for i := range w.wireless {
		a, err := w.bs.Assess(fmt.Sprintf("wl-%d", i))
		if err != nil || a.Tier != imgTiers[i] {
			return fmt.Errorf("image-tiered: wl-%d assessed %v (%.1f dB), placement expects %v", i, a.Tier, a.SIRdB, imgTiers[i])
		}
	}
	w.adapt()
	// Warm-up; the first share is a gray image and carries the
	// PSNR-monotone-in-budget spot check.
	for i := 0; i < imgWarmup; i++ {
		if i == 0 {
			w.shareOne(0, true, nil)
		} else {
			w.shareOne(w.nextPick(), false, nil)
		}
	}
	if w.failed > 0 {
		return fmt.Errorf("image-tiered: warm-up failed an oracle: %v", w.notes)
	}
	return nil
}

func (w *imageTiered) close() {
	if w.wiredNet == nil {
		return
	}
	for _, c := range append([]*core.Client{w.pub}, append(w.wired[:], w.wireless[:]...)...) {
		if c != nil {
			c.Close()
		}
	}
	if w.bs != nil {
		w.bs.Close()
	}
	w.wiredNet.Close()
	if w.radioNet != nil {
		w.radioNet.Close()
	}
}

func (w *imageTiered) nextPick() int { return int(w.picks[w.shares%uint64(len(w.picks))]) }

// adapt runs one adaptation cycle on each wired receiver (SNMP sample
// -> inference -> viewer budget), as the real client's ticker would.
func (w *imageTiered) adapt() {
	for r, c := range w.wired {
		t0 := time.Now()
		d, err := c.AdaptOnce()
		w.adaptUS = append(w.adaptUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil || d.EffectiveBudget(imgPackets) != imgBudgets[r] {
			w.fail("wired-%d: adaptation gave budget %d, host state implies %d (%v)", r, d.EffectiveBudget(imgPackets), imgBudgets[r], err)
		}
	}
}

func (w *imageTiered) fail(format string, args ...any) {
	w.failed++
	if len(w.notes) < 20 {
		w.notes = append(w.notes, fmt.Sprintf(format, args...))
	}
}

// complete reports whether every recipient has applied share number n
// (1-based), from the clients' monotonic counters alone.
func (w *imageTiered) complete(n uint64) bool {
	for _, c := range w.wired {
		if c.Stats().DataPackets < imgPackets*n {
			return false
		}
	}
	for i, c := range w.wireless {
		st := c.Stats()
		if imgTiers[i] == radio.TierImage && st.DataPackets < imgPackets*n {
			return false
		}
		if st.EventsReceived < n {
			return false
		}
	}
	return true
}

// shareOne publishes one share, waits until all nine recipients have
// their rendition, checks each against the oracle and forgets the
// object everywhere.  marks, when set, receives the instants ShareImage
// returned and the last recipient finished.
func (w *imageTiered) shareOne(pick int, psnr bool, marks *[2]time.Time) (completeUS float64) {
	name := w.names[w.shares%uint64(len(w.names))]
	t0 := time.Now()
	if err := w.pub.ShareImage(name, w.pool[pick], imgSel); err != nil {
		w.fail("share %s: %v", name, err)
	}
	w.shares++
	sent := time.Now()
	wait := waitUntil
	if marks != nil {
		wait = spinUntil
	}
	if !wait(10*time.Second, func() bool { return w.complete(w.shares) }) {
		w.fail("share %s: a recipient missed the drain deadline", name)
	}
	done := time.Now()
	if marks != nil {
		marks[0], marks[1] = sent, done
	}
	ok := true
	for r, c := range w.wired {
		st, err := c.Viewer().Stats(name)
		if err != nil || st.PacketsAccepted != imgBudgets[r] || st.PacketsReceived != imgPackets {
			ok = false
			w.fail("%s: %s accepted %d of %d received, budget %d (%v)", c.ID(), name, st.PacketsAccepted, st.PacketsReceived, imgBudgets[r], err)
		}
	}
	for i, c := range w.wireless {
		st, err := c.Viewer().Stats(name)
		switch imgTiers[i] {
		case radio.TierImage:
			if err != nil || st.PacketsAccepted != imgPackets {
				ok = false
				w.fail("%s: image tier got %d packets of %s (%v)", c.ID(), st.PacketsAccepted, name, err)
			}
		default:
			want := media.KindSketch
			if imgTiers[i] == radio.TierText {
				want = media.KindText
			}
			d, has := c.Inbox().Latest()
			if err == nil || !has || d.Object.Kind != want {
				ok = false
				w.fail("%s: expected a %s rendition of %s in the inbox", c.ID(), want, name)
			}
		}
	}
	if psnr && ok && w.rasters[pick] != nil {
		prev := math.Inf(1)
		for _, c := range w.wired { // budgets descend 16, 8, 4
			res, err := c.Viewer().Render(name)
			if err != nil {
				w.fail("%s: render %s: %v", c.ID(), name, err)
				break
			}
			db, _ := wavelet.PSNR(w.rasters[pick], res.Image)
			if db > prev {
				w.fail("%s: PSNR %.1f dB rose as the budget fell", c.ID(), db)
			}
			prev = db
		}
	}
	w.pub.Viewer().Forget(name)
	for _, c := range w.wired {
		c.Viewer().Forget(name)
	}
	for _, c := range w.wireless {
		c.Viewer().Forget(name)
	}
	return float64(done.Sub(t0).Nanoseconds()) / 1e3
}

// timed is a closed loop with one share outstanding.  It stops at a
// cycle boundary so every run shares each pool image equally often.
func (w *imageTiered) timed(d time.Duration, ph *phase) {
	s0, b0 := w.shares, netBytes(w.wiredNet, w.radioNet)
	start := time.Now()
	sl := newSlicer(ph.every, start, 0)
	for time.Since(start) < d || (w.shares-s0)%imgPool != 0 {
		if (w.shares-s0)%imgAdaptEach == 0 {
			w.adapt()
		}
		ph.completeUS = append(ph.completeUS, w.shareOne(w.nextPick(), false, nil))
		sl.tick(time.Now(), (w.shares-s0)*imgDeliv)
	}
	ph.ops = w.shares - s0
	ph.deliveries = ph.ops * imgDeliv
	ph.slices, ph.wireBytes = sl.rates, netBytes(w.wiredNet, w.radioNet)-b0
}

// latency is nil: the timed phase already has one share outstanding
// and times every one of them.
func (w *imageTiered) latency(time.Duration) []float64 { return nil }

func (w *imageTiered) check() verdict {
	v := verdict{attempted: w.shares, failed: w.failed, lossless: true, notes: w.notes}
	v.expected = w.shares * imgDeliv
	count := func(c *core.Client, wantEvents, wantData uint64) {
		st := c.Stats()
		if st.EventsReceived == wantEvents && st.DataPackets == wantData && st.DecodeErrors == 0 && st.EventsFiltered == 0 {
			v.applied += w.shares
			return
		}
		v.failf(1, "%s: events %d data %d errors %d filtered %d, oracle events %d data %d",
			c.ID(), st.EventsReceived, st.DataPackets, st.DecodeErrors, st.EventsFiltered, wantEvents, wantData)
	}
	for _, c := range w.wired {
		count(c, w.shares, imgPackets*w.shares)
	}
	unicasts := uint64(0)
	for i, c := range w.wireless {
		if imgTiers[i] == radio.TierImage {
			count(c, w.shares, imgPackets*w.shares)
			unicasts += (1 + imgPackets) * w.shares
		} else {
			count(c, w.shares, 0)
			unicasts += w.shares
		}
	}
	if got := w.bs.Stats().DownlinkUnicasts; got != unicasts {
		v.failf(1, "bs: %d downlink unicasts, oracle %d", got, unicasts)
	}
	v.failOnNetLoss(w.wiredNet, w.radioNet)
	return v
}

func (w *imageTiered) counters(ph *phase, lay layers) {
	netCounters(w.wiredNet, lay)
	netCounters(w.radioNet, lay)
	for _, c := range w.wired {
		if st, ok := c.ReceptionReport(w.pub.ID()); ok {
			lay["rtp.late"] += float64(st.Late)
			lay["rtp.duplicates"] += float64(st.Duplicates)
		}
	}
	var budget float64
	for _, c := range w.wired {
		budget += float64(c.LastDecision().EffectiveBudget(imgPackets))
	}
	lay["inference.budget_mean"] = budget / float64(len(w.wired))
	lay["core.adapt_once_us"] = median(w.adaptUS)
	// Observed tier shares of the wireless deliveries.
	var byTier [4]float64
	for _, c := range w.wireless {
		st := c.Stats()
		if st.DataPackets > 0 {
			byTier[radio.TierImage] += float64(st.DataPackets) / imgPackets
		} else if d, ok := c.Inbox().Latest(); ok && d.Object.Kind == media.KindSketch {
			byTier[radio.TierSketch] += float64(st.EventsReceived)
		} else if ok {
			byTier[radio.TierText] += float64(st.EventsReceived)
		}
	}
	if total := byTier[1] + byTier[2] + byTier[3]; total > 0 {
		lay["basestation.tier_share.image"] = byTier[radio.TierImage] / total
		lay["basestation.tier_share.sketch"] = byTier[radio.TierSketch] / total
		lay["basestation.tier_share.text"] = byTier[radio.TierText] / total
	}
}

func (w *imageTiered) ladder(tr *tracer, lay layers) float64 {
	wiredPMs := make([]*profile.Manager, 0, 4)
	for _, c := range w.wired {
		wiredPMs = append(wiredPMs, c.Profile())
	}
	wiredPMs = append(wiredPMs, w.pub.Profile()) // stands in for the base station's wired leg
	rfPMs := make([]*profile.Manager, 0, len(w.wireless))
	for _, c := range w.wireless {
		rfPMs = append(rfPMs, c.Profile())
	}
	wiredKit, err := newPathKit(imgMTU, cloneManagers(wiredPMs))
	if err != nil {
		return 0
	}
	defer wiredKit.close()
	rfKit, err := newPathKit(imgMTU, cloneManagers(rfPMs))
	if err != nil {
		return 0
	}
	defer rfKit.close()

	viewers := make([]*apps.ImageViewer, 4) // 3 receivers + the collector
	recvs := make([]*rtp.Receiver, 4)
	for i := range viewers {
		viewers[i], recvs[i] = apps.NewImageViewer(), rtp.NewReceiver(64)
		if i < len(imgBudgets) {
			viewers[i].SetBudget(imgBudgets[i])
		}
	}
	rfViewers := make([]*apps.ImageViewer, len(w.wireless))
	inboxes := make([]*apps.MediaInbox, len(w.wireless))
	for i := range rfViewers {
		rfViewers[i], inboxes[i] = apps.NewImageViewer(), apps.NewMediaInbox()
	}
	sender := rtp.NewSender(1, 96, 0)
	reg := media.DefaultRegistry()
	var seq uint32
	var sample []*message.Message
	msg := func(kind message.Kind, attrs selector.Attributes, body []byte) *message.Message {
		seq++
		return &message.Message{Kind: kind, Sender: "pub", Seq: seq, Timestamp: time.Now(),
			Selector: imgSel, Attrs: attrs, Body: body}
	}
	applyImage := func(tr *tracer, op int, vs []*apps.ImageViewer, rs []*rtp.Receiver) func(int, *message.Message) {
		return func(r int, mm *message.Message) {
			if mm.Kind == message.KindEvent {
				meta, _ := apps.DecodeImageMeta(mm.Body)
				vs[r].Announce(meta)
				return
			}
			obj, _ := mm.Attr(message.AttrObject)
			lvl, _ := mm.Attr(message.AttrLevel)
			var pkt rtp.Packet
			tr.do("rtp.unmarshal_push", op, func() {
				pkt, _ = rtp.Unmarshal(mm.Body)
				if rs != nil {
					rs[r].Push(pkt, uint32(time.Now().UnixMilli()))
				}
			})
			tr.do("apps.viewer_add_packet", op, func() { vs[r].AddPacket(obj.Str(), int(lvl.Num()), pkt.Payload) })
		}
	}
	// sendImage re-enacts announce + 16 RTP data packets over kit.
	sendImage := func(kit *pathKit, op int, name string, obj *media.Object, to []int, vs []*apps.ImageViewer, rs []*rtp.Receiver) {
		var meta apps.ImageMeta
		var packets [][]byte
		tr.do("apps.share_split", op, func() { meta, packets, _ = apps.ShareImage(name, obj, imgPackets) })
		announce := msg(message.KindEvent, obj.Attrs().Merge(selector.Attributes{
			message.AttrApp: selector.S(apps.AppImageViewer), message.AttrObject: selector.S(name)}), apps.EncodeImageMeta(meta))
		kit.walk(tr, op, announce, to, applyImage(tr, op, vs, rs))
		for i, p := range packets {
			var body []byte
			tr.do("rtp.next_marshal", op, func() {
				pkt := sender.Next(uint32(time.Now().UnixMilli()), i == len(packets)-1, p)
				body = pkt.Marshal()
			})
			data := msg(message.KindData, selector.Attributes{
				message.AttrApp: selector.S(apps.AppImageViewer), message.AttrObject: selector.S(name),
				message.AttrMedia: selector.S(string(media.KindImage)), message.AttrLevel: selector.N(float64(i))}, body)
			if i == 0 && len(sample) < imgPool {
				sample = append(sample, data)
			}
			kit.walk(tr, op, data, to, applyImage(tr, op, vs, rs))
		}
	}
	for op := 0; op < imgPool; op++ {
		obj, name := w.pool[op], fmt.Sprintf("ladder-%d", op)
		tr.do("op", op, func() {
			sendImage(wiredKit, op, name, obj, nil, viewers, recvs)
			// The base station's collect -> re-encode -> per-tier deliver.
			var reenc *media.Object
			if media.IsColor(obj) {
				var res *wavelet.ColorDecodeResult
				tr.do("wavelet.decode", op, func() { res, _ = viewers[3].RenderColor(name) })
				tr.do("wavelet.encode", op, func() { reenc, _ = media.EncodeColorImage(res.Image, obj.Description) })
			} else {
				var res *wavelet.DecodeResult
				tr.do("wavelet.decode", op, func() { res, _ = viewers[3].Render(name) })
				tr.do("wavelet.encode", op, func() { reenc, _ = media.EncodeImage(res.Image, obj.Description) })
			}
			for i := range w.wireless {
				id := fmt.Sprintf("wl-%d", i)
				tr.do("basestation.assess", op, func() { w.bs.Assess(id) })
				tr.doN("radio.sir_6", op, fastReps, func() { w.bs.Channel().SIRdB(id) })
			}
			sendImage(rfKit, op, name, reenc, []int{0, 1}, rfViewers, nil)
			var sk, txt *media.Object
			for range []int{2, 3} { // the base station transforms once per client
				tr.do("media.to_sketch", op, func() { sk, _ = reg.Transmode(reenc, media.KindSketch) })
			}
			for range []int{4, 5} {
				tr.do("media.to_text", op, func() { txt, _ = reg.Transmode(reenc, media.KindText) })
			}
			for _, tier := range []struct {
				obj *media.Object
				to  []int
			}{{sk, []int{2, 3}}, {txt, []int{4, 5}}} {
				payload, _ := apps.EncodeMediaObject(tier.obj)
				m := msg(message.KindEvent, tier.obj.Attrs().Merge(selector.Attributes{
					message.AttrApp: selector.S(apps.AppMedia), message.AttrObject: selector.S(name)}), payload)
				rfKit.walk(tr, op, m, tier.to, func(r int, mm *message.Message) {
					tr.do("apps.inbox_apply", op, func() { inboxes[r].Apply(mm.Sender, mm.Body) })
				})
			}
		})
		for _, v := range viewers {
			v.Forget(name)
		}
		for _, v := range rfViewers {
			v.Forget(name)
		}
		// Off the delivery path: prefix decode and gradation, as a
		// budget-limited receiver or a gradating relay would run them.
		tr.do("wavelet.decode_prefix", op, func() { wavelet.Decode(w.pool[0].Data[:len(w.pool[0].Data)/4]) })
		tr.do("media.gradate", op, func() { media.Gradate(obj, len(obj.Data)/4) })
	}
	ladderNS := tr.ladderNS("op")
	wiredKit.commonLadder(tr, sample, lay)
	wiredKit.pathMetrics(tr, lay)
	for _, c := range w.wired {
		state := selector.Attributes{}
		for k, v := range c.Profile().Snapshot().State {
			state[k] = v
		}
		for op := 0; op < 64; op++ {
			tr.doN("inference.decide", op, 4, func() { c.Engine().Decide(state) })
		}
	}
	for op := 0; op < 64; op++ {
		tr.do("snmp.get_roundtrip", op, func() {
			w.monitors[op%3].Sample(hostagent.ParamCPULoad, hostagent.ParamPageFaults)
		})
	}
	// The real pipeline, one share at a time, spin-polled.
	for op := 0; op < imgPool; op++ {
		var marks [2]time.Time
		t0 := time.Since(tr.epoch)
		w.shareOne(op, false, &marks)
		tr.spans = append(tr.spans,
			span{Name: "core.share_image", Start: int64(t0), End: int64(marks[0].Sub(tr.epoch)), Parent: -1, Op: op, Reps: 1},
			span{Name: "basestation.collect_deliver", Start: int64(marks[0].Sub(tr.epoch)), End: int64(marks[1].Sub(tr.epoch)), Parent: -1, Op: op, Reps: 1})
	}
	for name, metric := range map[string]string{
		"rtp.next_marshal": "rtp.next_marshal_ns", "rtp.unmarshal_push": "rtp.unmarshal_push_ns",
		"apps.viewer_add_packet": "apps.viewer_add_packet_ns", "basestation.assess": "basestation.assess_ns",
		"radio.sir_6": "radio.sir_ns_6", "inference.decide": "inference.decide_ns",
	} {
		lay[metric] = tr.ns(name)
	}
	for name, metric := range map[string]string{
		"wavelet.encode": "wavelet.encode_us", "wavelet.decode": "wavelet.decode_us",
		"wavelet.decode_prefix": "wavelet.decode_prefix_us", "media.to_sketch": "media.to_sketch_us",
		"media.to_text": "media.to_text_us", "media.gradate": "media.gradate_us",
		"apps.share_split": "apps.share_split_us", "snmp.get_roundtrip": "snmp.get_roundtrip_us",
		"core.share_image": "core.share_image_us", "basestation.collect_deliver": "basestation.collect_deliver_us",
	} {
		lay[metric] = tr.ns(name) / 1e3
	}
	return ladderNS / 1e3 / float64(imgPool*imgDeliv)
}
