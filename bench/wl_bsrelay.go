package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/matchindex"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/registry"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// bs-relay: a base station with 256 joined members in 8 teams.  Four
// members per team are live core.Clients; the rest are attached and
// drained.  Load is a repeating pattern of three downlink Says addressed
// to one team (index-first match -> 32 unicasts) and one uplink event
// from a rotating member (wired multicast + 255 unicasts).
const (
	bsTeams   = 8
	bsPerTeam = 32
	bsLive    = 4 // live core.Clients per team
	bsMembers = bsTeams * bsPerTeam
	bsWindow  = 16
	bsRing    = 4096
	bsPattern = 4 // 3 downlink + 1 uplink
	bsWarmup  = 64
	bsWired   = 3 // publisher + 2 receivers, all of which apply uplinks
)

type bsOp struct {
	uplink bool
	team   int // downlink: addressed team
	member int // uplink: sending member's index
	text   string
	sel    string
}

func bsMemberID(i int) string { return fmt.Sprintf("m-%d-%02d", i/bsPerTeam, i%bsPerTeam) }
func bsIsLive(i int) bool     { return i%bsPerTeam < bsLive }

func genBSOps(seed int64, n int) []bsOp {
	rng := rand.New(rand.NewSource(seed))
	teams, members := rng.Perm(bsTeams), rng.Perm(bsMembers)
	ops := make([]bsOp, n)
	down, up := 0, 0
	for i := range ops {
		op := &ops[i]
		op.text = randText(rng, fmt.Sprintf("b%d ", i))
		if i%bsPattern == bsPattern-1 {
			op.uplink, op.member = true, members[up%bsMembers]
			up++
		} else {
			op.team = teams[down%bsTeams]
			op.sel = fmt.Sprintf(`team == "t%d"`, op.team)
			down++
		}
	}
	return ops
}

type bsRelay struct {
	seed int64
	ops  []bsOp

	wiredNet, radioNet *transport.SimNet
	pub                *core.Client
	wired              [2]*core.Client
	bs                 *basestation.BaseStation
	live               map[int]*core.Client // by member index
	drained            []transport.Conn
	stopDrain          chan struct{}
	drainDone          sync.WaitGroup

	published uint64
	pubErrs   uint64
	expect    [bsMembers]uint64 // frames each member must get
	expWired  uint64            // uplinks: applied by pub and both receivers
	expFilt   uint64            // downlinks: filtered by both receivers
	unicasts  uint64            // expected bs.Stats().DownlinkUnicasts
	// cumulative expected unicasts after each of the last bsWindow ops
	cum [bsWindow]uint64

	cand0, cand1 uint64
	downlinks    uint64
}

func newBSRelay(seed int64) *bsRelay { return &bsRelay{seed: seed} }

func (w *bsRelay) inputDigest() string {
	h := sha256.New()
	for i := range w.ops {
		op := &w.ops[i]
		fmt.Fprintf(h, "%t|%d|%d|%s|%s|", op.uplink, op.team, op.member, op.text, op.sel)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (w *bsRelay) generate() error {
	w.ops = genBSOps(w.seed, bsRing)
	return nil
}

func (w *bsRelay) setup() error {
	w.wiredNet = transport.NewSimNet(transport.SimNetConfig{Seed: w.seed})
	w.radioNet = transport.NewSimNet(transport.SimNetConfig{Seed: w.seed + 1})
	client := func(net *transport.SimNet, id string) (*core.Client, error) {
		conn, err := net.Attach(id)
		if err != nil {
			return nil, err
		}
		c := core.NewClient(conn, core.Config{})
		c.Chat().MaxLines = chatMaxLines
		return c, nil
	}
	var err error
	if w.pub, err = client(w.wiredNet, "pub"); err != nil {
		return err
	}
	for r := range w.wired {
		if w.wired[r], err = client(w.wiredNet, fmt.Sprintf("wired-%d", r)); err != nil {
			return err
		}
	}
	bsW, err := w.wiredNet.Attach("bs")
	if err != nil {
		return err
	}
	bsRF, err := w.radioNet.Attach("bs")
	if err != nil {
		return err
	}
	// Thresholds wide open: with 256 interferers every SIR is far below
	// the default tiers, and this workload is about relay cost.
	w.bs = basestation.New("bs", bsW, bsRF, radio.NewChannel(radio.Params{}),
		basestation.Config{Thresholds: radio.Thresholds{TextDB: -1000, SketchDB: -900, ImageDB: -800}})
	w.live = make(map[int]*core.Client)
	for i := 0; i < bsMembers; i++ {
		id, team := bsMemberID(i), fmt.Sprintf("t%d", i/bsPerTeam)
		if bsIsLive(i) {
			c, err := client(w.radioNet, id)
			if err != nil {
				return err
			}
			c.Profile().SetInterest("team", selector.S(team))
			w.live[i] = c
		} else {
			conn, err := w.radioNet.Attach(id)
			if err != nil {
				return err
			}
			w.drained = append(w.drained, conn)
		}
		p := profile.New(id)
		p.Interests.SetString("team", team)
		// Distances are powers of two: then every path gain is one too,
		// the channel's interference sum is exact, and a member's SIR
		// does not depend on the order Go iterates the channel's map in.
		// At other distances each re-assessment moves the stored SIR in
		// its last bits, which marks the member dirty in the match index
		// and makes allocs_per_delivery wander by 15% from run to run.
		if _, err := w.bs.Join(p, float64(int(32)<<(i%2)), 1); err != nil {
			return err
		}
	}
	w.stopDrain = make(chan struct{})
	w.drainDone.Add(1)
	go w.drainLoop()
	for i := 0; i < bsWarmup; i++ {
		w.waitCredit(waitUntil)
		w.publish()
	}
	if !waitUntil(10*time.Second, w.drainedAll) {
		return fmt.Errorf("bs-relay: warm-up did not drain")
	}
	return nil
}

// drainLoop empties the inboxes of the members that are attached but
// have no client behind them.
func (w *bsRelay) drainLoop() {
	defer w.drainDone.Done()
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		for _, c := range w.drained {
			for more := true; more; {
				select {
				case _, ok := <-c.Recv():
					more = ok
				default:
					more = false
				}
			}
		}
		select {
		case <-w.stopDrain:
			return
		case <-tick.C:
		}
	}
}

func (w *bsRelay) close() {
	if w.wiredNet == nil {
		return
	}
	if w.stopDrain != nil {
		close(w.stopDrain)
		w.drainDone.Wait()
	}
	for _, c := range append([]*core.Client{w.pub}, w.wired[:]...) {
		if c != nil {
			c.Close()
		}
	}
	for _, c := range w.live {
		c.Close()
	}
	if w.bs != nil {
		w.bs.Close()
	}
	w.wiredNet.Close()
	if w.radioNet != nil {
		w.radioNet.Close()
	}
}

// publish sends the next op and books what the oracle expects of it.
func (w *bsRelay) publish() {
	op := &w.ops[w.published%uint64(len(w.ops))]
	var err error
	if op.uplink {
		err = w.bs.UplinkEvent(bsMemberID(op.member), apps.AppChat, "", apps.EncodeSay(op.text))
		for i := range w.expect {
			if i != op.member {
				w.expect[i]++
			}
		}
		w.expWired++
		w.unicasts += bsMembers - 1
	} else {
		err = w.pub.Say(op.text, op.sel)
		for i := op.team * bsPerTeam; i < (op.team+1)*bsPerTeam; i++ {
			w.expect[i]++
		}
		w.expFilt++
		w.unicasts += bsPerTeam
	}
	if err != nil {
		w.pubErrs++
	}
	w.cum[w.published%bsWindow] = w.unicasts
	w.published++
}

// waitCredit blocks until the op published bsWindow ops ago has been
// fanned out completely.
func (w *bsRelay) waitCredit(wait func(time.Duration, func() bool) bool) {
	if w.published < bsWindow {
		return
	}
	need := w.cum[w.published%bsWindow] // written bsWindow ops ago
	wait(10*time.Second, func() bool { return w.bs.Stats().DownlinkUnicasts >= need })
}

// appliedTotal is the deliveries applied so far: frames applied by live
// clients and wired peers plus frames delivered to drained members.
func (w *bsRelay) appliedTotal() (n uint64) {
	for _, c := range w.live {
		n += c.Stats().EventsReceived
	}
	for _, c := range w.drained {
		n += w.radioNet.Stats(c.ID()).Delivered
	}
	n += w.pub.Stats().EventsReceived
	for _, c := range w.wired {
		n += c.Stats().EventsReceived
	}
	return
}

// expectedTotal is what the oracle expects appliedTotal to reach.
func (w *bsRelay) expectedTotal() (n uint64) {
	for _, e := range w.expect {
		n += e
	}
	return n + bsWired*w.expWired
}

func (w *bsRelay) drainedAll() bool {
	if w.bs.Stats().DownlinkUnicasts < w.unicasts {
		return false
	}
	for _, c := range w.wired {
		if st := c.Stats(); st.EventsReceived < w.expWired || st.EventsFiltered < w.expFilt {
			return false
		}
	}
	if w.pub.Stats().EventsReceived < w.expWired {
		return false
	}
	for i, c := range w.live {
		if c.Stats().EventsReceived < w.expect[i] {
			return false
		}
	}
	return true
}

func (w *bsRelay) timed(d time.Duration, ph *phase) {
	a0, p0, b0 := w.appliedTotal(), w.published, netBytes(w.wiredNet, w.radioNet)
	w.cand0 = metrics.C(metrics.CtrMatchIndexCandidates).Load()
	start := time.Now()
	sl := newSlicer(ph.every, start, a0)
	lastTick := start
	// Stop at a pattern boundary so every run has the same op mix.
	for time.Since(start) < d || (w.published-p0)%bsPattern != 0 {
		w.waitCredit(waitUntil)
		w.publish()
		if now := time.Now(); now.Sub(lastTick) >= ph.every/4 {
			sl.tick(now, w.appliedTotal())
			lastTick = now
		}
	}
	waitUntil(10*time.Second, w.drainedAll)
	time.Sleep(2 * time.Millisecond) // let the drain loop take the tail
	w.cand1 = metrics.C(metrics.CtrMatchIndexCandidates).Load()
	ph.ops = w.published - p0
	w.downlinks = ph.ops / bsPattern * (bsPattern - 1)
	ph.deliveries = w.appliedTotal() - a0
	ph.slices, ph.wireBytes = sl.rates, netBytes(w.wiredNet, w.radioNet)-b0
}

func (w *bsRelay) latency(d time.Duration) []float64 {
	var out []float64
	waitUntil(10*time.Second, w.drainedAll)
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		w.publish()
		spinUntil(10*time.Second, w.drainedAll)
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out
}

func (w *bsRelay) check() verdict {
	v := verdict{attempted: w.published, failed: w.pubErrs, lossless: true}
	if !waitUntil(10*time.Second, w.drainedAll) {
		v.failf(1, "drain deadline passed")
	}
	time.Sleep(2 * time.Millisecond)
	v.expected = w.expectedTotal()
	for i := 0; i < bsMembers; i++ {
		var got, errs uint64
		if c, ok := w.live[i]; ok {
			st := c.Stats()
			got, errs = st.EventsReceived, st.DecodeErrors+st.EventsFiltered
		} else {
			got = w.radioNet.Stats(bsMemberID(i)).Delivered
		}
		v.applied += min(got, w.expect[i])
		if got != w.expect[i] || errs != 0 {
			v.failf(absDiff(got, w.expect[i])+errs, "%s got %d frames (%d errors/filtered), oracle %d", bsMemberID(i), got, errs, w.expect[i])
		}
	}
	wiredCheck := func(c *core.Client, wantFiltered uint64) {
		st := c.Stats()
		v.applied += min(st.EventsReceived, w.expWired)
		if st.EventsReceived != w.expWired || st.EventsFiltered != wantFiltered || st.DecodeErrors != 0 {
			v.failf(1, "%s applied %d filtered %d errors %d, oracle %d / %d / 0", c.ID(), st.EventsReceived, st.EventsFiltered, st.DecodeErrors, w.expWired, wantFiltered)
		}
	}
	wiredCheck(w.pub, 0)
	for _, c := range w.wired {
		wiredCheck(c, w.expFilt)
	}
	if got := w.bs.Stats().DownlinkUnicasts; got != w.unicasts {
		v.failf(1, "bs: %d downlink unicasts, oracle %d", got, w.unicasts)
	}
	if st := w.bs.Stats(); st.UplinkDropped != 0 {
		v.failf(st.UplinkDropped, "bs dropped %d uplinks", st.UplinkDropped)
	}
	// In order per sender, gap-free and unduplicated at the application:
	// the downlinks a live client keeps (all from the publisher) must be
	// the last ones the oracle addressed to its team, in publish order.
	// Uplinks come from a different member each and race the downlink
	// relay loop, so for them only presence exactly once is checked.
	for i, c := range w.live {
		var wantDown, wantUp []string
		for n := w.published; n > 0 && (len(wantDown) < 16 || len(wantUp) < 16); n-- {
			op := &w.ops[(n-1)%uint64(len(w.ops))]
			if op.uplink && op.member != i && len(wantUp) < 16 {
				wantUp = append(wantUp, op.text)
			} else if !op.uplink && op.team == i/bsPerTeam && len(wantDown) < 16 {
				wantDown = append(wantDown, op.text)
			}
		}
		var gotDown []string
		seen := map[string]int{}
		lines := c.Chat().Lines()
		for k := len(lines) - 1; k >= 0; k-- {
			if lines[k].Sender == w.pub.ID() {
				gotDown = append(gotDown, lines[k].Text)
			}
			seen[lines[k].Text]++
		}
		for k, text := range wantDown {
			if k >= len(gotDown) || gotDown[k] != text {
				v.failf(1, "%s: downlink tail out of order or duplicated at -%d", c.ID(), k)
				break
			}
		}
		for _, text := range wantUp {
			if seen[text] != 1 {
				v.failf(1, "%s: an uplink line arrived %d times", c.ID(), seen[text])
				break
			}
		}
	}
	v.failOnNetLoss(w.wiredNet, w.radioNet)
	if drops := metrics.C(metrics.CtrDispatchQueueDrops).Load(); drops != 0 {
		v.failf(drops, "dispatch shed %d jobs", drops)
	}
	return v
}

func (w *bsRelay) counters(ph *phase, lay layers) {
	netCounters(w.wiredNet, lay)
	netCounters(w.radioNet, lay)
	if w.downlinks > 0 {
		cands := float64(w.cand1-w.cand0) / float64(w.downlinks)
		lay["registry.candidates_per_match"] = cands
		if cands > 0 {
			lay["registry.match_precision"] = bsPerTeam / cands
		}
	}
	if ph.deliveries > 0 {
		lay["core.filtered_per_delivery"] = float64(2*w.downlinks) / float64(ph.deliveries)
	}
}

func (w *bsRelay) ladder(tr *tracer, lay layers) float64 {
	reg := w.bs.Registry()
	// Wired leg: the two receivers and the base station's wired port.
	wiredKit, err := newPathKit(0, cloneManagers([]*profile.Manager{w.wired[0].Profile(), w.wired[1].Profile(), w.pub.Profile()}))
	if err != nil {
		return 0
	}
	defer wiredKit.close()
	// Radio leg: one receiver per member, live ones with a chat area.
	pms := make([]*profile.Manager, bsMembers)
	for i := range pms {
		pms[i] = profile.NewManager(bsMemberID(i))
		pms[i].SetInterest("team", selector.S(fmt.Sprintf("t%d", i/bsPerTeam)))
	}
	rfKit, err := newPathKit(0, pms)
	if err != nil {
		return 0
	}
	defer rfKit.close()
	chats := map[int]*apps.ChatArea{}
	for i := range w.live {
		chats[i] = apps.NewChatArea()
		chats[i].MaxLines = chatMaxLines
	}
	applyChat := func(op int) func(int, *message.Message) {
		return func(r int, mm *message.Message) {
			tr.do("apps.chat_apply", op, func() { chats[r].Apply(mm.Sender, mm.Body) })
		}
	}
	// relay re-enacts the base station's per-client leg for ids: live
	// members run the whole receive path, drained ones only cost the
	// wrap and the unicast.
	relay := func(op int, m *message.Message, ids []int, pipeline bool) (deliveries int) {
		var liveIdx []int
		for _, i := range ids {
			if pipeline { // downlink: match -> tier gate per candidate
				var flat selector.Attributes
				tr.doN("registry.flat_snapshot", op, fastReps, func() { flat, _, _ = reg.FlatSnapshot(bsMemberID(i)) })
				tr.doN("selector.match", op, fastReps, func() { m.MatchProfile(flat) })
				tr.do("basestation.assess", op, func() { w.bs.Assess(bsMemberID(i)) })
			}
			if bsIsLive(i) {
				liveIdx = append(liveIdx, i)
				continue
			}
			var d [][]byte
			tr.do("message.wrap", op, func() { d, _ = rfKit.env.WrapMessage(m) })
			tr.counts["message.datagrams"] += uint64(len(d))
			tr.do("transport.simnet_unicast", op, func() { rfKit.src.Unicast(rfKit.dsts[i].ID(), d[0]) })
			<-rfKit.dsts[i].Recv()
			deliveries++
		}
		return deliveries + rfKit.walk(tr, op, m, liveIdx, applyChat(op))
	}
	const sampleOps = 32
	var sample []*message.Message
	deliveries := 0
	var downSels []*selector.Selector
	for op := 0; op < sampleOps; op++ {
		o := &w.ops[(w.published+uint64(op))%uint64(len(w.ops))]
		m := chatMessage(&chatOp{say: true, text: o.text, sel: o.sel}, uint32(op+1))
		sample = append(sample, m)
		tr.do("op", op, func() {
			if o.uplink {
				m.Sender = bsMemberID(o.member)
				tr.do("basestation.assess", op, func() { w.bs.Assess(m.Sender) })
				deliveries += wiredKit.walk(tr, op, m, nil, nil)
				ids := make([]int, 0, bsMembers-1)
				for i := 0; i < bsMembers; i++ {
					if i != o.member {
						ids = append(ids, i)
					}
				}
				deliveries += relay(op, m, ids, false)
				return
			}
			wiredKit.walk(tr, op, m, nil, nil) // both receivers filter it; the base station relays
			sel, _ := selector.CompileCached(o.sel)
			downSels = append(downSels, sel)
			var matched []string
			tr.do("registry.match_ids", op, func() { matched = reg.MatchIDs(sel) })
			ids := make([]int, 0, len(matched))
			for i := o.team * bsPerTeam; i < (o.team+1)*bsPerTeam && len(ids) < len(matched); i++ {
				ids = append(ids, i)
			}
			deliveries += relay(op, m, ids, true)
		})
	}
	ladderNS := tr.ladderNS("op")
	wiredKit.commonLadder(tr, sample, lay)
	wiredKit.pathMetrics(tr, lay)

	// Single rungs on the live base station's own registry and channel.
	pool := dispatch.NewPool(dispatch.PoolConfig{Name: "bench", Workers: runtime.GOMAXPROCS(0)})
	defer pool.Close()
	pipe := dispatch.NewPipeline(dispatch.Match(func(id string) (selector.Attributes, bool) {
		flat, _, ok := reg.FlatSnapshot(id)
		return flat, ok
	}), func(*dispatch.Task) error { return nil })
	for op, sel := range downSels {
		team := w.ops[(w.published+uint64(op))%uint64(len(w.ops))].team
		ids := reg.MatchIDs(sel)
		tr.do("dispatch.each", op, func() { pool.Each(0, ids, func(string) error { return nil }) })
		tr.counts["dispatch.each_ids"] += uint64(len(ids))
		tr.doN("matchindex.plan", op, fastReps, func() { matchindex.PlanSelector(sel) })
		id := bsMemberID(team * bsPerTeam)
		task := dispatch.Task{To: id, Msg: sample[0]}
		tr.doN("dispatch.pipeline_run", op, 4, func() { pipe.Run(&task) })
		tr.doN("radio.sir_256", op, 4, func() { w.bs.Channel().SIRdB(id) })
		a := registry.Assessment{SIRdB: float64(op), Power: 1, Distance: 30}
		tr.do("registry.put_assessment", op, func() { reg.PutAssessment(id, a) })
		w.bs.Assess(id) // restore the stored radio state
	}
	if len(downSels) > 0 {
		lay["registry.match_ids_allocs"] = allocsPer(256, func() { reg.MatchIDs(downSels[0]) })
	}
	// The real pipeline, one op outstanding, spin-polled.
	waitUntil(10*time.Second, w.drainedAll)
	var m0, m1 runtime.MemStats
	var uplinks uint64
	for op := 0; op < 64; op++ {
		o := &w.ops[w.published%uint64(len(w.ops))]
		name := "basestation.downlink_event"
		if o.uplink {
			name = "basestation.uplink_event"
			runtime.ReadMemStats(&m0)
		}
		tr.do(name, op, func() {
			w.publish()
			spinUntil(10*time.Second, w.drainedAll)
		})
		if o.uplink {
			runtime.ReadMemStats(&m1)
			uplinks++
			tr.counts["uplink_mallocs"] += m1.Mallocs - m0.Mallocs
		}
	}
	if uplinks > 0 {
		lay["basestation.uplink_allocs_per_unicast"] = float64(tr.counts["uplink_mallocs"]) / float64(uplinks*(bsMembers-1))
	}
	lay["basestation.uplink_event_us"] = tr.ns("basestation.uplink_event") / 1e3
	lay["basestation.downlink_event_us"] = tr.ns("basestation.downlink_event") / 1e3
	for name, metric := range map[string]string{
		"registry.match_ids": "registry.match_ids_ns", "registry.flat_snapshot": "registry.flat_snapshot_ns",
		"registry.put_assessment": "registry.put_assessment_ns", "matchindex.plan": "matchindex.plan_ns",
		"dispatch.pipeline_run": "dispatch.pipeline_run_ns", "radio.sir_256": "radio.sir_ns_256",
		"basestation.assess": "basestation.assess_ns", "apps.chat_apply": "apps.chat_apply_ns",
	} {
		lay[metric] = tr.ns(name)
	}
	if n := tr.counts["dispatch.each_ids"]; n > 0 {
		lay["dispatch.each_ns_per_id"] = tr.totalNS("dispatch.each") / float64(n)
	}
	if deliveries == 0 {
		return 0
	}
	return ladderNS / 1e3 / float64(deliveries)
}
