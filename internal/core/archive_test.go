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

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// newTestCoordinator is a coordinator kernel on a conn that goes
// nowhere.
func newTestCoordinator() *CoordinatorKernel {
	return NewCoordinatorKernel(nullConn{"coordinator", clock.NewVirtual(time.Unix(0, 0))}, session.Group{Objective: "quick"})
}

// TestCoordinatorFarAheadSeqDoesNotStall: 64 frames heard past a lost
// seq 1, then one frame four billion seqs ahead: the datagram is
// handled at once and every frame that arrived is archived.
func TestCoordinatorFarAheadSeqDoesNotStall(t *testing.T) {
	k := newTestCoordinator()
	for seq := uint32(2); seq <= 65; seq++ {
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
	if got := k.ArchivedEvents(); got != 65 {
		t.Errorf("%d frames archived, want all 65 that arrived", got)
	}
}

// archiveModel is the plain reference for the coordinator's archive:
// each (sender, seq) is archived the first time it is heard, unless its
// seq is at or below its sender's floor, the newest seq the cap has
// trimmed of that sender.  log lists every archived frame in session
// order, the ones the cap trimmed included; log[:trimmed] are those.
type archiveModel struct {
	heard   map[string]bool // "sender/seq" ever archived
	floor   map[string]uint64
	log     []string
	seqs    []uint64 // seqs[i] is log[i]'s seq
	trimmed int
	drops   int
}

func (m *archiveModel) push(sender string, seq uint64, limit int) {
	kf := fmt.Sprintf("%s/%d", sender, seq)
	if m.heard[kf] || seq <= m.floor[sender] {
		m.drops++
		return
	}
	m.heard[kf] = true
	m.log, m.seqs = append(m.log, kf), append(m.seqs, seq)
	for ; len(m.log)-m.trimmed > limit; m.trimmed++ {
		s := m.log[m.trimmed][:1]
		m.floor[s] = max(m.floor[s], m.seqs[m.trimmed])
	}
}

// TestQuickCoordinatorArchiveMatchesModel feeds three senders' frames
// (and a fourth's the group filter rejects) in random order, with
// duplicates and one frame far ahead, to a coordinator whose cap is
// lowered mid-run; the frames it never heard arrive last, as
// stragglers.  The kernel must archive exactly the model's frames in
// the model's order and count exactly its duplicates, keep archived ==
// indexed ≤ cap throughout, keep each sender's index the sorted seqs
// the archive holds of it, answer a catch-up with the retained frames
// in session order, and answer a NACK with held ∩ wanted in sender
// order, maxRepairFrames at most.
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
		m := &archiveModel{heard: map[string]bool{}, floor: map[string]uint64{}}
		drops := metrics.C(metrics.CtrArchiveDupDrops).Load()
		var ever []string // what the kernel archived, in session order
		send := func(sender string, seq uint64) bool {
			next := k.first + uint64(len(k.log))
			feed(t, k, sender, uint32(seq))
			if sender != "m" {
				m.push(sender, seq, k.archiveCap)
			}
			if next < k.first {
				t.Logf("seed %d: one frame trimmed frames it archived", seed)
				return false
			}
			for _, f := range k.log[next-k.first:] {
				ever = append(ever, key(f.stream.sender, uint64(f.senderSeq)))
			}
			// A lowered cap takes hold at the next frame archived.
			capped := k.first+uint64(len(k.log)) == next || k.ArchivedEvents() <= k.archiveCap
			if k.ArchivedEvents() != indexed(k) || !capped {
				t.Logf("seed %d: %d archived, %d indexed, cap %d", seed, k.ArchivedEvents(), indexed(k), k.archiveCap)
				return false
			}
			return true
		}

		// Each sender's seqs spread over one timeline and jittered by up
		// to window (the widest is a random permutation), a tenth never
		// heard until the end and a tenth duplicated; c also sends one
		// frame far ahead.
		var frames, late []frame
		window := []float64{1, 16, 400, 1e6}[r.Intn(4)]
		for _, s := range []struct {
			sender string
			n      int
		}{{"a", 300 + r.Intn(300)}, {"b", 20 + r.Intn(40)}, {"c", 20 + r.Intn(40)}, {"m", 20}} {
			for seq := uint64(1); seq <= uint64(s.n); seq++ {
				fr := frame{s.sender, seq, 1000*float64(seq)/float64(s.n) + r.Float64()*window}
				switch r.Intn(10) {
				case 0:
					late = append(late, fr)
					continue
				case 1:
					dup := fr
					dup.at += r.Float64() * window
					frames = append(frames, dup)
				}
				frames = append(frames, fr)
			}
		}
		frames = append(frames, frame{"c", uint64(1<<31 + r.Intn(1<<20)), 1000 * r.Float64()})
		sort.Slice(frames, func(i, j int) bool { return frames[i].at < frames[j].at })
		lower := r.Intn(len(frames)) // where the cap drops to a third
		for i, fr := range frames {
			if i == lower {
				k.archiveCap /= 3
			}
			if !send(fr.sender, fr.seq) {
				return false
			}
		}
		r.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
		for _, fr := range late {
			if !send(fr.sender, fr.seq) {
				return false
			}
		}

		if !slices.Equal(ever, m.log) {
			t.Logf("seed %d: kernel archived %d frames, model %d, or in another order", seed, len(ever), len(m.log))
			return false
		}
		if got := metrics.C(metrics.CtrArchiveDupDrops).Load() - drops; got != uint64(m.drops) {
			t.Logf("seed %d: %d duplicates counted, model %d", seed, got, m.drops)
			return false
		}

		// What the archive still holds: the model's untrimmed frames.
		held := m.log[m.trimmed:]
		for _, sender := range []string{"a", "b", "c"} {
			var want, got []uint64
			for i, kf := range held {
				if kf[:1] == sender {
					want = append(want, m.seqs[m.trimmed+i])
				}
			}
			slices.Sort(want)
			for _, e := range k.streams[sender].archived {
				if f := k.log[e.sessionSeq-k.first]; f.stream.sender != sender || f.senderSeq != e.senderSeq {
					t.Logf("seed %d: %s's index points seq %d at %s/%d", seed, sender, e.senderSeq, f.stream.sender, f.senderSeq)
					return false
				}
				got = append(got, uint64(e.senderSeq))
			}
			if !slices.Equal(got, want) {
				t.Logf("seed %d: %s's index holds %d seqs, want the %d held, sorted", seed, sender, len(got), len(want))
				return false
			}
		}

		conn.sent = nil
		var env message.Enveloper
		d, err := env.WrapMessage(&message.Message{Kind: message.KindControl, Sender: "late", Seq: 1,
			Attrs: selector.Attributes{attrCtrl: selector.S(ctrlHistoryReq)}})
		if err != nil {
			t.Fatal(err)
		}
		k.HandlePacket(transport.Packet{From: "late", Data: d[0]})
		if got, other := conn.sentSeqs(t); !slices.Equal(got, held) || other != 0 {
			t.Logf("seed %d: catch-up answered with %d frames (+%d other), want %d", seed, len(got), other, len(held))
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
			for i, kf := range held {
				if seq := m.seqs[m.trimmed+i]; kf[:1] == sender && wanted(seq) {
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
