package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// TestCoordinatorFarAheadSeqDoesNotStall: 64 frames parked behind a
// lost seq 1, then one frame four billion seqs ahead, push the stream
// through the flush path.  Only the newest maxStreamMissing skipped
// seqs can be remembered, so the datagram is handled at once, every
// frame that arrived is archived and the missing set stays bounded.
func TestCoordinatorFarAheadSeqDoesNotStall(t *testing.T) {
	k := newTestCoordinator()
	for seq := uint32(2); seq <= maxStreamPending+1; seq++ {
		feed(t, k, "u", seq)
	}
	var env message.Enveloper
	d, err := env.WrapMessage(&message.Message{Kind: message.KindEvent, Sender: "u", Seq: math.MaxUint32})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.HandlePacket(transport.Packet{From: "u", Data: d[0]})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("HandlePacket still running 2 s after a far-ahead frame")
	}
	if got := k.ArchivedEvents(); got != maxStreamPending+1 {
		t.Errorf("%d frames archived, want all %d that arrived", got, maxStreamPending+1)
	}
	if n := len(k.streams["u"].missing); n > maxStreamMissing {
		t.Errorf("%d skipped seqs remembered, bound %d", n, maxStreamMissing)
	}
}

// archiveModel is the plain reference for the coordinator's archive:
// per sender a next seq, a set of parked seqs and a set of skipped ones,
// every question answered by scanning them; log lists every archived
// frame in session order, the ones the cap trimmed included.
type archiveModel struct {
	streams map[string]*modelStream
	log     []string // "sender/seq"; log[i] has session seq i+1
}

type modelStream struct {
	next            uint64
	parked, missing map[uint64]bool
}

func (m *archiveModel) push(sender string, seq uint64) {
	st := m.streams[sender]
	if st == nil {
		st = &modelStream{next: 1, parked: map[uint64]bool{}, missing: map[uint64]bool{}}
		m.streams[sender] = st
	}
	if seq < st.next {
		if st.missing[seq] {
			delete(st.missing, seq)
			m.log = append(m.log, fmt.Sprintf("%s/%d", sender, seq))
		}
		return
	}
	st.parked[seq] = true
	m.release(sender, st)
	if len(st.parked) <= maxStreamPending {
		return
	}
	for len(st.parked) > 0 { // flush: one gap at a time until nothing is parked
		low := uint64(math.MaxUint64)
		for s := range st.parked {
			low = min(low, s)
		}
		// Only the newest maxStreamMissing skipped seqs are remembered;
		// anything older would be evicted by them anyway.
		for s := max(st.next, low-min(low, maxStreamMissing)); s < low; s++ {
			st.missing[s] = true
		}
		for len(st.missing) > maxStreamMissing {
			oldest := low
			for s := range st.missing {
				oldest = min(oldest, s)
			}
			delete(st.missing, oldest)
		}
		st.next = low
		m.release(sender, st)
	}
}

func (m *archiveModel) release(sender string, st *modelStream) {
	for st.parked[st.next] {
		delete(st.parked, st.next)
		m.log = append(m.log, fmt.Sprintf("%s/%d", sender, st.next))
		st.next++
	}
}

// TestQuickCoordinatorArchiveMatchesModel feeds three senders' frames
// (and a fourth's the group filter rejects) in random order, with
// duplicates, drops and one frame far ahead, to a coordinator with a
// small cap, then drains every stream and re-sends what was dropped.
// The kernel must archive exactly the model's frames in the model's
// order — each admitted (sender, seq) at most once, and exactly once
// if it arrived, unless it is one the far-ahead jump pushed out of the
// missing set — keep archived == indexed ≤ cap throughout, answer a
// catch-up with the retained frames in session order, and answer a
// NACK with held ∩ wanted in sender order, maxRepairFrames at most.
func TestQuickCoordinatorArchiveMatchesModel(t *testing.T) {
	type frame struct {
		sender string
		seq    uint64
		at     float64
	}
	key := func(sender string, seq uint64) string { return fmt.Sprintf("%s/%d", sender, seq) }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		conn := newCaptureConn("coordinator", time.Unix(0, 0))
		k := NewCoordinatorKernel(conn, session.Group{Objective: "model", Filter: selector.MustCompile(`client != "m"`)})
		k.archiveCap = 300 + r.Intn(400)
		m := &archiveModel{streams: map[string]*modelStream{}}
		var ever []string // what the kernel archived, in session order
		arrived := map[string]bool{}
		send := func(sender string, seq uint64) bool {
			arrived[key(sender, seq)] = true
			next := k.first + uint64(len(k.log))
			feed(t, k, sender, uint32(seq))
			if sender != "m" {
				m.push(sender, seq)
			}
			if next < k.first {
				t.Logf("seed %d: one frame trimmed frames it archived", seed)
				return false
			}
			for _, f := range k.log[next-k.first:] {
				ever = append(ever, key(f.stream.sender, uint64(f.senderSeq)))
			}
			if k.ArchivedEvents() != indexed(k) || k.ArchivedEvents() > k.archiveCap {
				t.Logf("seed %d: %d archived, %d indexed, cap %d", seed, k.ArchivedEvents(), indexed(k), k.archiveCap)
				return false
			}
			return true
		}

		// Each sender's seqs spread over one timeline and jittered by up
		// to window, a tenth dropped and a tenth duplicated; c also sends
		// one frame far ahead.
		var frames, dropped []frame
		top := map[string]uint64{}
		window := []float64{1, 16, 400}[r.Intn(3)]
		for _, s := range []struct {
			sender string
			n      int
		}{{"a", 300 + r.Intn(300)}, {"b", 20 + r.Intn(40)}, {"c", 20 + r.Intn(40)}, {"m", 20}} {
			for seq := uint64(1); seq <= uint64(s.n); seq++ {
				fr := frame{s.sender, seq, 1000*float64(seq)/float64(s.n) + r.Float64()*window}
				switch r.Intn(10) {
				case 0:
					dropped = append(dropped, fr)
					continue
				case 1:
					dup := fr
					dup.at += r.Float64() * window
					frames = append(frames, dup)
				}
				frames = append(frames, fr)
			}
			top[s.sender] = uint64(s.n)
		}
		far := uint64(1<<31 + r.Intn(1<<20))
		frames = append(frames, frame{"c", far, 1000 * r.Float64()})
		top["c"] = far
		sort.Slice(frames, func(i, j int) bool { return frames[i].at < frames[j].at })
		for _, fr := range frames {
			if !send(fr.sender, fr.seq) {
				return false
			}
		}
		// Drain: 65 frames past a lost one flush whatever is parked.  a
		// goes last, so it often holds more than one NACK may return.
		for _, sender := range []string{"m", "c", "b", "a"} {
			for seq := top[sender] + 2; seq <= top[sender]+maxStreamPending+2; seq++ {
				if !send(sender, seq) {
					return false
				}
			}
		}
		// The drops arrive last, as stragglers.
		r.Shuffle(len(dropped), func(i, j int) { dropped[i], dropped[j] = dropped[j], dropped[i] })
		for _, fr := range dropped {
			if !send(fr.sender, fr.seq) {
				return false
			}
		}

		if !slices.Equal(ever, m.log) {
			t.Logf("seed %d: kernel archived %d frames, model %d, or in another order", seed, len(ever), len(m.log))
			return false
		}
		archived := map[string]bool{}
		for _, kf := range ever {
			if archived[kf] || !arrived[kf] || kf[0] == 'm' {
				t.Logf("seed %d: %s archived twice, without arriving, or past the group filter", seed, kf)
				return false
			}
			archived[kf] = true
		}
		for kf := range arrived {
			var sender string
			var seq uint64
			fmt.Sscanf(kf, "%1s/%d", &sender, &seq)
			if !archived[kf] && sender != "m" && !(sender == "c" && seq < far-maxStreamMissing) {
				t.Logf("seed %d: %s arrived and was never archived", seed, kf)
				return false
			}
		}

		// What the archive still holds: the model's last cap frames.
		lo := max(0, len(m.log)-k.archiveCap) // held[i] has session seq lo+i+1
		held := m.log[lo:]
		after := uint64(r.Intn(len(m.log) + 5))
		if r.Intn(2) == 0 {
			after = uint64(lo + r.Intn(3)) // at the trimmed edge
		}
		conn.sent = nil
		var env message.Enveloper
		d, err := env.WrapMessage(&message.Message{Kind: message.KindControl, Sender: "late", Seq: 1,
			Attrs: selector.Attributes{attrCtrl: selector.S(ctrlHistoryReq), attrAfterSeq: selector.N(float64(after))}})
		if err != nil {
			t.Fatal(err)
		}
		k.HandlePacket(transport.Packet{From: "late", Data: d[0]})
		got, other := conn.sentSeqs(t)
		want := held[min(max(after, uint64(lo))-uint64(lo), uint64(len(held))):]
		if !slices.Equal(got, want) || other != 0 {
			t.Logf("seed %d: catch-up after %d answered with %d frames (+%d other), want %d", seed, after, len(got), other, len(want))
			return false
		}

		for _, sender := range []string{"a", "b", "c", "m"} {
			var holes []session.SeqRange
			from := uint64(1)
			for i := r.Intn(2) * (1 + r.Intn(maxNackHoles)); i > 0; i-- { // a hole list, or only the open range
				h := session.SeqRange{From: from + uint64(r.Intn(40))}
				h.To = h.From + uint64(r.Intn(40))
				holes, from = append(holes, h), h.To+2
			}
			past := from + uint64(r.Intn(400))
			wanted := func(seq uint64) bool {
				for _, h := range holes {
					if h.From <= seq && seq <= h.To {
						return true
					}
				}
				return seq >= past
			}
			var seqs []uint64
			for _, kf := range held {
				var s string
				var seq uint64
				fmt.Sscanf(kf, "%1s/%d", &s, &seq)
				if s == sender && wanted(seq) {
					seqs = append(seqs, seq)
				}
			}
			slices.Sort(seqs)
			var want []string
			for _, seq := range seqs[:min(len(seqs), maxRepairFrames)] {
				want = append(want, key(sender, seq))
			}
			conn.sent = nil
			k.HandlePacket(transport.Packet{From: "r", Data: nackDatagram(t, "r", sender, appendHoles(nil, holes, past))})
			got, other := conn.sentSeqs(t)
			if !slices.Equal(got, want) || other != 0 {
				t.Logf("seed %d: NACK for %s answered with %d frames (+%d other), want %d", seed, sender, len(got), other, len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
