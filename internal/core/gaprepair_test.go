package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// nackTap is a receiver kernel's attachment that shows the test every
// datagram the kernel gives before the network takes it.
type nackTap struct {
	transport.Conn
	give func(to string, d []byte)
}

func (c nackTap) Give(to string, d []byte) error {
	c.give(to, d)
	return c.Conn.Give(to, d)
}

// schedulePinned is the hash of the gap-repair schedule below.  It is
// the value the engine produced before the state machine moved onto the
// kernel's sender streams; any change to when a NACK leaves, what it
// names, when a gap is given up or what is delivered moves it.
const schedulePinned = "9e27d5bc124a8170d10f1d5b6bb894af7d80943f2f5bab885fa5a1e9f242b0d4"

// TestRepairSchedulePinned drives three raw senders and three repairing
// receiver kernels on a virtual-time DESNet (20% loss, 1% duplication
// and jitter on every sender→receiver link, a budget of two NACKs a
// gap) and hashes every NACK (virtual instant, requester, datagram:
// the stream it names and its hole list), every abandoned gap and
// every delivery.  Part of the run the coordinator is cut off, so gaps
// are abandoned.  At the end one frame of every stream is lost at every
// receiver at once while the coordinator is unreachable, so several
// streams of one kernel stall in the same Poll and the order the jitter
// is drawn across them decides when each retries and gives up.
func TestRepairSchedulePinned(t *testing.T) {
	const (
		senders, receivers = 3, 3
		coordID            = "coordinator"
	)
	net := newVNet(t, 34)
	clk := net.clk
	h := sha256.New()
	var nacks, abandons, delivered int
	ns := func() int64 { return clk.Now().UnixNano() }

	var coord *CoordinatorKernel
	coord = NewCoordinatorKernel(net.handler(coordID, func(p transport.Packet) { coord.HandlePacket(p) }),
		session.Group{Objective: "schedule"})

	type pub struct {
		conn transport.Conn
		env  message.Enveloper
		seq  uint32
	}
	pubs := make([]*pub, senders)
	for i := range pubs {
		id := fmt.Sprintf("pub-%d", i)
		pubs[i] = &pub{conn: net.handler(id, func(transport.Packet) {}), env: message.Enveloper{Node: id}}
	}
	recvs := make([]*Kernel, receivers)
	for i := range recvs {
		i, id := i, fmt.Sprintf("recv-%d", i)
		conn := nackTap{Conn: net.handler(id, func(p transport.Packet) { recvs[i].HandlePacket(p) }),
			give: func(to string, d []byte) {
				nacks++
				fmt.Fprintf(h, "nack %d %s %s %x\n", ns(), id, to, d)
			}}
		recvs[i] = NewKernel(conn, Config{Repair: &RepairOptions{
			Coordinator: coordID, StallTimeout: 32 * time.Millisecond, MaxRetries: 2, Seed: int64(40 + i),
		}})
		recvs[i].Deliver = func(m *message.Message) {
			delivered++
			fmt.Fprintf(h, "deliver %d %s %s %d\n", ns(), id, m.Sender, m.Seq)
		}
	}
	lossy := transport.Link{Loss: 0.2, Duplicate: 0.01, Delay: 2 * time.Millisecond, Jitter: time.Millisecond}
	setLinks := func(l transport.Link) {
		for _, p := range pubs {
			for _, k := range recvs {
				net.SetLink(p.conn.ID(), k.ID(), l)
			}
		}
	}
	partition := func(down bool) {
		for _, k := range recvs {
			net.Partition(coordID, k.ID(), down)
		}
	}
	publishRound := func() {
		for _, p := range pubs {
			p.seq++
			d, err := p.env.WrapMessage(&message.Message{
				Kind: message.KindEvent, Sender: p.conn.ID(), Seq: p.seq, Timestamp: clk.Now(),
				Body: []byte(fmt.Sprintf("%s line %d", p.conn.ID(), p.seq)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, dg := range d {
				if err := p.conn.Multicast(dg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Poll every receiver on its interval, in receiver order; a gap
	// whose Abandoned count moved in a Poll is hashed with the sequence
	// number it was waiting for.
	interval := recvs[0].PollInterval()
	nextPoll := clk.Now().Add(interval)
	sameInstant := 0 // most NACKs one kernel sent in one Poll
	run := func(d time.Duration) {
		end := clk.Now().Add(d)
		for !nextPoll.After(end) {
			clk.AdvanceTo(nextPoll)
			for _, k := range recvs {
				before := k.RepairStatus()
				sent := nacks
				k.Poll(nextPoll)
				sameInstant = max(sameInstant, nacks-sent)
				after := k.RepairStatus()
				streams := make([]string, 0, len(after))
				for s := range after {
					streams = append(streams, s)
				}
				slices.Sort(streams)
				for _, s := range streams {
					if after[s].Abandoned != before[s].Abandoned {
						abandons++
						fmt.Fprintf(h, "abandon %d %s %s %d\n", ns(), k.ID(), s, before[s].WaitingFor)
					}
				}
			}
			clk.Advance(0)
			nextPoll = nextPoll.Add(interval)
		}
		clk.AdvanceTo(end)
	}

	setLinks(lossy)
	for round := 0; round < 200; round++ {
		if round == 80 {
			partition(true)
		}
		if round == 140 {
			partition(false)
		}
		publishRound()
		run(4 * time.Millisecond)
	}
	run(time.Second)
	// One frame of every stream lost at every receiver, then clean
	// frames park behind all nine gaps at the same instant, with the
	// coordinator cut off: each stream's retry and abandon instants are
	// its own jitter draws.
	partition(true)
	setLinks(transport.Link{Down: true})
	publishRound()
	setLinks(transport.Link{})
	publishRound()
	run(300 * time.Millisecond)
	partition(false)
	publishRound()
	run(time.Second)

	t.Logf("%d NACKs, %d abandoned gaps, %d deliveries; at most %d NACKs in one Poll", nacks, abandons, delivered, sameInstant)
	if abandons == 0 || nacks == 0 {
		t.Fatalf("the run exercised no abandon (%d) or no NACK (%d)", abandons, nacks)
	}
	if sameInstant < senders {
		t.Fatalf("at most %d streams of one kernel NACKed in one Poll, want %d", sameInstant, senders)
	}
	for _, k := range recvs {
		for s, st := range k.RepairStatus() {
			if st.Parked != 0 {
				t.Errorf("%s still holds %d frames of %s", k.ID(), st.Parked, s)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != schedulePinned {
		t.Errorf("repair schedule hash %s, pinned %s", got, schedulePinned)
	}
}

// The gap state machine through one kernel fed by hand: frames of
// sender "pub" are handed to HandlePacket, time is whatever the test
// passes to Poll, and the NACKs the kernel sends are captured.
type gapRig struct {
	*viewRig
	conn *captureConn
	base time.Time
}

func newGapRig(t *testing.T, opts RepairOptions) *gapRig {
	t.Helper()
	r := &gapRig{viewRig: &viewRig{t: t}, base: time.Unix(1000, 0)}
	r.conn = newCaptureConn("recv", r.base)
	opts.Coordinator = "coordinator"
	r.k = NewKernel(r.conn, Config{Repair: &opts})
	r.k.Deliver = func(m *message.Message) { r.applied = append(r.applied, fmt.Sprintf("%s/%d", m.Sender, m.Seq)) }
	return r
}

// push hands the kernel pub's frames with the given seqs.
func (r *gapRig) push(seqs ...uint32) {
	for _, s := range seqs {
		r.k.HandlePacket(r.say("pub", s, ""))
	}
}

func (r *gapRig) poll(after time.Duration) { r.k.Poll(r.base.Add(after)) }

func (r *gapRig) status() RepairStatus { return r.k.RepairStatus()["pub"] }

// nack decodes the i-th NACK sent: the stream it names and its ranges,
// the open one last.
func (r *gapRig) nack(i int) (stream string, ranges []session.SeqRange) {
	r.t.Helper()
	frame, err := message.NewUnwrapper().Unwrap("recv", r.conn.sent[i])
	if err != nil || frame == nil {
		r.t.Fatalf("NACK %d unreadable: %v", i, err)
	}
	m, err := message.Decode(frame)
	if err != nil {
		r.t.Fatal(err)
	}
	ranges, ok := parseHoles(m.Body, make([]session.SeqRange, 0, maxNackHoles+1))
	if !ok {
		r.t.Fatalf("NACK %d body %x malformed", i, m.Body)
	}
	forSender, _ := m.Attr(attrForSender)
	return forSender.Str(), ranges
}

// within reports whether d is inside ±20% of nominal, plus slack for a
// poll grid.
func within(d, nominal, slack time.Duration) bool {
	return d >= nominal*4/5 && d <= nominal*6/5+slack
}

func TestGapNoNACKBeforeStallTimeout(t *testing.T) {
	r := newGapRig(t, RepairOptions{StallTimeout: 100 * time.Millisecond})
	r.push(2, 3, 4) // waiting for 1
	r.poll(0)       // first sighting of the stall
	r.poll(50 * time.Millisecond)
	if n := len(r.conn.sent); n != 0 {
		t.Fatalf("NACKed before the stall timeout: %d", n)
	}
	r.poll(110 * time.Millisecond)
	if n := len(r.conn.sent); n != 1 {
		t.Fatalf("NACKs = %d, want 1", n)
	}
	stream, ranges := r.nack(0)
	if want := []session.SeqRange{{From: 1, To: 1}, {From: 5, To: maxSenderSeq}}; stream != "pub" || !reflect.DeepEqual(ranges, want) {
		t.Errorf("NACK names %s %v, want pub %v", stream, ranges, want)
	}
}

func TestGapIdleTailNeverNACKs(t *testing.T) {
	r := newGapRig(t, RepairOptions{StallTimeout: 10 * time.Millisecond})
	r.push(1, 2, 3, 4, 5, 6) // waiting for 7, nothing parked
	for i := 0; i < 50; i++ {
		r.poll(time.Duration(i) * 10 * time.Millisecond)
	}
	if n := len(r.conn.sent); n != 0 {
		t.Fatalf("an idle tail must not trigger repair: %d NACKs", n)
	}
}

// Nobody answers: the waits between NACKs double from the stall timeout
// to 16 times it and stay there, each within ±20%, and one wait after
// the last NACK the gap is abandoned and what was parked is delivered.
func TestGapBackoffDoublesToCapThenAbandons(t *testing.T) {
	const (
		stall   = 10 * time.Millisecond
		retries = 7
		step    = 100 * time.Microsecond
	)
	r := newGapRig(t, RepairOptions{StallTimeout: stall, MaxRetries: retries, Seed: 3})
	r.push(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12) // 10 is lost
	var sentAt []time.Duration
	abandonedAt := time.Duration(-1)
	for at := time.Duration(0); at <= 2*time.Second && abandonedAt < 0; at += step {
		sent := len(r.conn.sent)
		r.poll(at)
		if len(r.conn.sent) > sent {
			sentAt = append(sentAt, at)
		}
		if r.status().Abandoned == 1 {
			abandonedAt = at
		}
	}
	if len(sentAt) != retries || abandonedAt < 0 {
		t.Fatalf("%d NACKs at %v, abandoned at %v; want %d, then an abandon", len(sentAt), sentAt, abandonedAt, retries)
	}
	for i, at := range slices.Concat(sentAt[1:], []time.Duration{abandonedAt}) {
		nominal := stall << min(i, 4) // 1, 2, 4, 8, 16, 16, 16 × stall
		if d := at - sentAt[i]; !within(d, nominal, step) {
			t.Errorf("wait %d = %v, want %v ±20%%", i+1, d, nominal)
		}
	}
	if want := []string{"pub/1", "pub/2", "pub/3", "pub/4", "pub/5", "pub/6", "pub/7", "pub/8", "pub/9", "pub/11", "pub/12"}; !reflect.DeepEqual(r.applied, want) {
		t.Errorf("delivered %v, want %v", r.applied, want)
	}
	if st := r.status(); st.Requests != retries || st.WaitingFor != 13 || st.Attempts != 0 {
		t.Errorf("status %+v, want %d requests and waiting for 13 with no attempt open", st, retries)
	}
}

func TestGapProgressResetsAttempts(t *testing.T) {
	r := newGapRig(t, RepairOptions{StallTimeout: 100 * time.Millisecond, MaxRetries: 2})
	r.push(1, 2, 4) // waiting for 3
	r.poll(0)
	r.poll(110 * time.Millisecond) // NACK 1 for the gap at 3
	if n := len(r.conn.sent); n != 1 {
		t.Fatalf("NACKs = %d, want 1", n)
	}
	// The replay lands and delivery moves on to a new gap at 8.
	r.push(3, 5, 6, 7, 9)
	r.poll(200 * time.Millisecond)
	if st := r.status(); st.Repaired != 1 || st.Attempts != 0 || st.LastRepair != 90*time.Millisecond {
		t.Errorf("status %+v, want 1 repaired after 90ms and no attempt open", st)
	}
	// The new gap stalls: a fresh cycle starts at attempt 1.
	r.poll(310 * time.Millisecond)
	if st := r.status(); len(r.conn.sent) != 2 || st.Attempts != 1 {
		t.Fatalf("%d NACKs, attempts %d; want a second NACK as attempt 1", len(r.conn.sent), st.Attempts)
	}
	if _, ranges := r.nack(1); !reflect.DeepEqual(ranges, []session.SeqRange{{From: 8, To: 8}, {From: 10, To: maxSenderSeq}}) {
		t.Errorf("second NACK names %v, want [8,8] and 10 onward", ranges)
	}
}

// The same seed draws the same backoffs and other seeds others, every
// one within ±20% of the doubling schedule, and spread across that
// band rather than bunched at one end of it.
func TestGapJitterSpreadAndDeterministic(t *testing.T) {
	const stall = 100 * time.Millisecond
	schedule := func(seed int64) (out []time.Duration) {
		k := NewKernel(nullConn{"recv", clock.NewVirtual(time.Unix(0, 0))},
			Config{Repair: &RepairOptions{StallTimeout: stall, Seed: seed}})
		for i := 1; i <= 6; i++ {
			out = append(out, k.backoff(i))
		}
		return out
	}
	if a, b := schedule(7), schedule(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for seed := int64(1); seed <= 20; seed++ {
		s := schedule(seed)
		if seed > 1 && reflect.DeepEqual(s, schedule(seed-1)) {
			t.Errorf("seeds %d and %d drew the same jitter: %v", seed-1, seed, s)
		}
		for i, d := range s {
			if nominal := stall << min(i, 4); !within(d, nominal, 0) {
				t.Errorf("seed %d: backoff %d = %v outside %v ±20%%", seed, i+1, d, nominal)
			}
		}
		lo, hi = min(lo, s[0]), max(hi, s[0])
	}
	if hi-lo < stall/5 {
		t.Errorf("first backoffs over 20 seeds span only [%v, %v]", lo, hi)
	}
}

// Replicas given one RepairOptions with no seed, as cmd/collab gives
// its wired clients, seed their jitter from their own IDs, so they do
// not NACK the same loss in lockstep.
func TestGapJitterPerNodeWithoutSeed(t *testing.T) {
	opts := &RepairOptions{}
	schedule := func(id string) (out []time.Duration) {
		k := NewKernel(nullConn{id, clock.NewVirtual(time.Unix(0, 0))}, Config{Repair: opts})
		for i := 1; i <= 4; i++ {
			out = append(out, k.backoff(i))
		}
		return out
	}
	if a, b := schedule("wired-0"), schedule("wired-1"); reflect.DeepEqual(a, b) {
		t.Errorf("two replicas sharing one RepairOptions drew the same backoffs %v", a)
	}
	if a, b := schedule("wired-0"), schedule("wired-0"); !reflect.DeepEqual(a, b) {
		t.Errorf("one node's schedule is not reproducible: %v vs %v", a, b)
	}
}

// An unrepairable gap is abandoned within RepairOptions.AbandonSpan of
// opening, for every retry budget and stall timeout the replay grid
// sweeps and across jitter draws.  Polls run on the kernel's own grid
// from one interval after the gap opened, the latest a poll can first
// see it.
func TestGapAbandonedWithinAbandonSpan(t *testing.T) {
	for _, retries := range []int{1, 2, 6} {
		for _, stall := range []time.Duration{100 * time.Millisecond, 250 * time.Millisecond} {
			span := RepairOptions{StallTimeout: stall, MaxRetries: retries}.AbandonSpan()
			var latest time.Duration
			for seed := int64(1); seed <= 8; seed++ {
				r := newGapRig(t, RepairOptions{StallTimeout: stall, MaxRetries: retries, Seed: seed})
				r.push(1, 3) // 2 is never replayed
				interval := r.k.PollInterval()
				at := interval
				for ; at <= span && r.status().Abandoned == 0; at += interval {
					r.poll(at)
				}
				if r.status().Abandoned != 1 {
					t.Fatalf("retries %d, stall %v, seed %d: gap not abandoned within %v", retries, stall, seed, span)
				}
				latest = max(latest, at-interval)
			}
			t.Logf("retries %d, stall %v: abandoned by %v of AbandonSpan %v", retries, stall, latest, span)
		}
	}
}
