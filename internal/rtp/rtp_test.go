package rtp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPacketMarshalRoundTrip(t *testing.T) {
	p := Packet{
		PayloadType: 96,
		Marker:      true,
		Seq:         65534,
		Timestamp:   123456789,
		SSRC:        0xDEADBEEF,
		Payload:     []byte("image packet"),
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !samePacket(got, p) {
		t.Errorf("round trip: %+v vs %+v", got, p)
	}
}

// TestAppendMarshalExtends: AppendMarshal leaves what dst holds in
// place and appends exactly Marshal's bytes, which decode back to the
// packet.
func TestAppendMarshalExtends(t *testing.T) {
	p := Packet{PayloadType: 96, Marker: true, Seq: 7, Timestamp: 99, SSRC: 0xCAFE, Payload: []byte("chunk")}
	prefix := []byte("held")
	out := p.AppendMarshal(append([]byte(nil), prefix...))
	if string(out[:len(prefix)]) != string(prefix) {
		t.Fatalf("prefix overwritten: %q", out[:len(prefix)])
	}
	frame := out[len(prefix):]
	if string(frame) != string(p.Marshal()) {
		t.Fatalf("appended %x, Marshal %x", frame, p.Marshal())
	}
	got, err := Unmarshal(frame)
	if err != nil || !samePacket(got, p) {
		t.Errorf("round trip: %+v (%v) vs %+v", got, err, p)
	}
}

// TestUnmarshalAliasesFrame: the payload is a view of the frame, not a
// copy of it — receivers copy what they keep, once.
func TestUnmarshalAliasesFrame(t *testing.T) {
	frame := (&Packet{Payload: []byte("chunk")}).Marshal()
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[HeaderLen] = 'C'
	if string(got.Payload) != "Chunk" {
		t.Errorf("payload %q does not alias the frame", got.Payload)
	}
	if n := testing.AllocsPerRun(100, func() { Unmarshal(frame) }); n != 0 {
		t.Errorf("Unmarshal allocates %.0f times", n)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, HeaderLen-1)); !errors.Is(err, ErrShort) {
		t.Errorf("short: %v", err)
	}
	bad := (&Packet{}).Marshal()
	bad[0] = 0 // version 0
	if _, err := Unmarshal(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("version: %v", err)
	}
	// Padding, extension, a CSRC count: none is written by Marshal, and a
	// CSRC list taken for payload would corrupt the stream.
	for _, b0 := range []byte{0xA0, 0x90, 0x81, 0x8F} {
		bad[0] = b0
		if _, err := Unmarshal(bad); !errors.Is(err, ErrHeader) {
			t.Errorf("first byte %#x: %v", b0, err)
		}
	}
}

func TestSeqLess(t *testing.T) {
	cases := []struct {
		a, b uint16
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{65535, 0, true},  // wrap
		{0, 65535, false}, // wrap, other direction
		{0, 32767, true},
		{0, 32768, false}, // exactly half the space: "not less"
		{40000, 200, true},
	}
	for _, tc := range cases {
		if got := SeqLess(tc.a, tc.b); got != tc.want {
			t.Errorf("SeqLess(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if SeqDiff(65534, 2) != 4 {
		t.Errorf("SeqDiff wrap = %d, want 4", SeqDiff(65534, 2))
	}
}

func pkt(seq uint16, ts uint32) Packet {
	return Packet{Seq: seq, Timestamp: ts, Payload: []byte{byte(seq)}}
}

func TestReceiverInOrder(t *testing.T) {
	r := NewReceiver(16)
	for s := uint16(100); s < 110; s++ {
		out := r.Push(pkt(s, uint32(s)), uint32(s))
		if len(out) != 1 || out[0].Seq != s {
			t.Fatalf("seq %d: released %v", s, out)
		}
	}
	st := r.Snapshot()
	if st.Received != 10 || st.Lost != 0 || st.Duplicates != 0 || st.Buffered != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.ExpectedTotal != 10 {
		t.Errorf("expected = %d, want 10", st.ExpectedTotal)
	}
}

func TestReceiverReorders(t *testing.T) {
	r := NewReceiver(16)
	if out := r.Push(pkt(1, 1), 1); len(out) != 1 {
		t.Fatal("first packet should release immediately")
	}
	if out := r.Push(pkt(3, 3), 3); len(out) != 0 {
		t.Fatal("gap: packet 3 must wait for 2")
	}
	if out := r.Push(pkt(4, 4), 4); len(out) != 0 {
		t.Fatal("gap persists")
	}
	out := r.Push(pkt(2, 2), 2)
	if len(out) != 3 || out[0].Seq != 2 || out[1].Seq != 3 || out[2].Seq != 4 {
		t.Fatalf("gap fill released %v", out)
	}
}

func TestReceiverWindowSkip(t *testing.T) {
	r := NewReceiver(3)
	r.Push(pkt(0, 0), 0)
	// Lose packet 1; buffer 2,3,4 → on the 3rd buffered packet the
	// window is full and the receiver skips the gap.
	if out := r.Push(pkt(2, 2), 2); len(out) != 0 {
		t.Fatal("2 must wait")
	}
	if out := r.Push(pkt(3, 3), 3); len(out) != 0 {
		t.Fatal("3 must wait")
	}
	out := r.Push(pkt(4, 4), 4)
	if len(out) != 3 || out[0].Seq != 2 || out[2].Seq != 4 {
		t.Fatalf("window skip released %v", out)
	}
	st := r.Snapshot()
	if st.Lost != 1 {
		t.Errorf("lost = %d, want 1", st.Lost)
	}
	// Ordering resumes normally after the skip.
	if out := r.Push(pkt(5, 5), 5); len(out) != 1 || out[0].Seq != 5 {
		t.Fatalf("post-skip release %v", out)
	}
}

func TestReceiverDuplicatesAndLate(t *testing.T) {
	r := NewReceiver(8)
	r.Push(pkt(10, 10), 10)
	r.Push(pkt(11, 11), 11)
	if out := r.Push(pkt(10, 10), 12); len(out) != 0 {
		t.Fatal("late packet must not be released")
	}
	r.Push(pkt(13, 13), 13) // buffered
	if out := r.Push(pkt(13, 13), 14); len(out) != 0 {
		t.Fatal("duplicate buffered packet must be ignored")
	}
	st := r.Snapshot()
	if st.Late != 1 {
		t.Errorf("late = %d, want 1", st.Late)
	}
	if st.Duplicates != 1 {
		t.Errorf("dups = %d, want 1", st.Duplicates)
	}
}

func TestReceiverWrapAround(t *testing.T) {
	r := NewReceiver(16)
	seqs := []uint16{65533, 65534, 65535, 0, 1, 2}
	for i, s := range seqs {
		out := r.Push(pkt(s, uint32(i)), uint32(i))
		if len(out) != 1 || out[0].Seq != s {
			t.Fatalf("wrap at seq %d: released %v", s, out)
		}
	}
	st := r.Snapshot()
	if st.ExpectedTotal != uint64(len(seqs)) {
		t.Errorf("expected across wrap = %d, want %d", st.ExpectedTotal, len(seqs))
	}
	if st.Lost != 0 {
		t.Errorf("lost across wrap = %d", st.Lost)
	}
}

func TestReceiverJitter(t *testing.T) {
	r := NewReceiver(4)
	// Constant transit: zero jitter.
	for s := uint16(0); s < 20; s++ {
		r.Push(pkt(s, uint32(s)*100), uint32(s)*100+7)
	}
	if j := r.Snapshot().Jitter; j != 0 {
		t.Errorf("constant-transit jitter = %g, want 0", j)
	}
	// Variable transit: jitter grows.
	r2 := NewReceiver(4)
	arr := uint32(0)
	rng := rand.New(rand.NewSource(5))
	for s := uint16(0); s < 50; s++ {
		arr += 100 + uint32(rng.Intn(40))
		r2.Push(pkt(s, uint32(s)*100), arr)
	}
	if j := r2.Snapshot().Jitter; j <= 0 {
		t.Errorf("variable-transit jitter = %g, want > 0", j)
	}
}

func TestReceiverReportIntervals(t *testing.T) {
	r := NewReceiver(4)
	// 10 sent, lose seq 3 and 7 by skipping them past the window.
	for s := uint16(0); s < 10; s++ {
		if s == 3 || s == 7 {
			continue
		}
		r.Push(pkt(s, uint32(s)), uint32(s))
	}
	rr := r.Report(77)
	if rr.SSRC != 77 {
		t.Errorf("ssrc = %d", rr.SSRC)
	}
	if rr.CumLost != 2 {
		t.Errorf("cumLost = %d, want 2", rr.CumLost)
	}
	if rr.FractionLost <= 0 || rr.FractionLost > 0.5 {
		t.Errorf("fractionLost = %g", rr.FractionLost)
	}
	// A second report over an empty interval reports no new loss.
	rr2 := r.Report(77)
	if rr2.FractionLost != 0 {
		t.Errorf("idle-interval fractionLost = %g, want 0", rr2.FractionLost)
	}
	if rr2.CumLost != 2 {
		t.Errorf("cumulative loss must persist: %d", rr2.CumLost)
	}
}

func TestSender(t *testing.T) {
	s := NewSender(42, 96, 65534)
	p1 := s.Next(100, false, []byte("abc"))
	p2 := s.Next(200, true, []byte("defg"))
	p3 := s.Next(300, false, nil)
	if p1.Seq != 65534 || p2.Seq != 65535 || p3.Seq != 0 {
		t.Errorf("seq progression: %d %d %d", p1.Seq, p2.Seq, p3.Seq)
	}
	if p1.SSRC != 42 || p1.PayloadType != 96 || p2.Marker != true {
		t.Errorf("fields: %+v %+v", p1, p2)
	}
}

// TestQuickReceiverDeliversInOrder: under arbitrary reordering within
// the window and random loss, released packets are strictly in
// sequence order and no packet is released twice.
func TestQuickReceiverDeliversInOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		window := 2 + rng.Intn(16)
		r := NewReceiver(window)
		n := 50 + rng.Intn(200)

		// Build a stream with loss, then shuffle locally.
		var stream []Packet
		for s := 0; s < n; s++ {
			if rng.Float64() < 0.1 {
				continue // lost
			}
			stream = append(stream, pkt(uint16(s), uint32(s)))
		}
		// Local shuffle: swap within distance window/2.
		for i := range stream {
			j := i + rng.Intn(window/2+1)
			if j < len(stream) {
				stream[i], stream[j] = stream[j], stream[i]
			}
		}

		seen := make(map[uint16]bool)
		last := -1
		check := func(out []Packet) bool {
			for _, p := range out {
				if seen[p.Seq] {
					t.Logf("seed %d: packet %d released twice", seed, p.Seq)
					return false
				}
				seen[p.Seq] = true
				if int(p.Seq) <= last {
					t.Logf("seed %d: out of order release %d after %d", seed, p.Seq, last)
					return false
				}
				last = int(p.Seq)
			}
			return true
		}
		for i, p := range stream {
			if !check(r.Push(p, uint32(i))) {
				return false
			}
		}
		// Every pushed packet was released exactly once or is still held
		// behind a gap, except those the protocol legitimately dropped:
		// packets arriving after a window skip advanced the release point
		// past them (late), and duplicates.
		st := r.Snapshot()
		if uint64(len(seen)+len(r.buf))+st.Late+st.Duplicates != uint64(len(stream)) {
			t.Logf("seed %d: released %d + held %d + late %d + dup %d != pushed %d",
				seed, len(seen), len(r.buf), st.Late, st.Duplicates, len(stream))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPacketRoundTrip: arbitrary packets survive marshal/unmarshal.
func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(pt uint8, marker bool, seq uint16, ts, ssrc uint32, payload []byte) bool {
		p := Packet{
			PayloadType: pt & 0x7F,
			Marker:      marker,
			Seq:         seq,
			Timestamp:   ts,
			SSRC:        ssrc,
			Payload:     payload,
		}
		got, err := Unmarshal(p.Marshal())
		return err == nil && samePacket(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReceiverDuplicatesDontDeflateLoss is the RFC 3550 loss-accounting
// regression: the received side of the expected/received math must
// count unique packets, so duplicate deliveries cannot mask real loss.
func TestReceiverDuplicatesDontDeflateLoss(t *testing.T) {
	r := NewReceiver(4)
	// Sender emits seqs 0..9; seq 4 is lost on the wire.  Everything
	// else arrives, and 0..3 arrive twice (late duplicates) plus 5..7
	// are duplicated while still parked (in-buffer duplicates).
	for s := uint16(0); s < 4; s++ {
		r.Push(pkt(s, uint32(s)), uint32(s))
		r.Push(pkt(s, uint32(s)), uint32(s)) // dup of a delivered packet
	}
	for s := uint16(5); s < 8; s++ {
		r.Push(pkt(s, uint32(s)), uint32(s))
		r.Push(pkt(s, uint32(s)), uint32(s)) // dup of a parked packet
	}
	r.Push(pkt(8, 8), 8) // window hits 4 → skip declares seq 4 lost
	r.Push(pkt(9, 9), 9)

	st := r.Snapshot()
	if st.Received != 16 {
		t.Errorf("received = %d, want 16 (raw arrivals)", st.Received)
	}
	if st.Unique != 9 {
		t.Errorf("unique = %d, want 9", st.Unique)
	}
	if st.ExpectedTotal != 10 {
		t.Errorf("expected = %d, want 10", st.ExpectedTotal)
	}
	rr := r.Report(7)
	if rr.CumLost != 1 {
		t.Errorf("cumLost = %d, want 1: duplicates deflated the loss", rr.CumLost)
	}
	if rr.FractionLost < 0.09 || rr.FractionLost > 0.11 {
		t.Errorf("fractionLost = %g, want 0.1", rr.FractionLost)
	}

	// The lost packet finally straggles in: it is a recovery, not a
	// duplicate, and the cumulative loss corrects itself.
	r.Push(pkt(4, 4), 20)
	st = r.Snapshot()
	if st.Unique != 10 {
		t.Errorf("unique after recovery = %d, want 10", st.Unique)
	}
	if rr := r.Report(7); rr.CumLost != 0 {
		t.Errorf("cumLost after recovery = %d, want 0", rr.CumLost)
	}
	// ...but a second copy of it is a plain duplicate again.
	r.Push(pkt(4, 4), 21)
	if got := r.Snapshot().Unique; got != 10 {
		t.Errorf("unique after re-duplicate = %d, want 10", got)
	}
}

// TestDeclaredLostEvictsOldestFirst: past maxLostTracked declared
// losses the oldest give way, so which late arrivals count as recovered
// is a property of the stream, not of map iteration order: of 5 000
// declared-lost packets arriving late, the newest 4 096 are unique and
// the oldest 904 are indistinguishable from duplicates — every run.
func TestDeclaredLostEvictsOldestFirst(t *testing.T) {
	const lost = 5000
	for run := 0; run < 20; run++ {
		r := NewReceiver(1)
		// Even seqs only: with a window of one, each arrival declares
		// the odd seq before it lost.
		for s := 0; s <= 2*lost; s += 2 {
			r.Push(pkt(uint16(s), uint32(s)), uint32(s))
		}
		if st := r.Snapshot(); st.Lost != lost || st.Unique != lost+1 {
			t.Fatalf("run %d: lost %d unique %d after the gapped stream", run, st.Lost, st.Unique)
		}
		for i := 0; i < lost; i++ {
			before := r.Snapshot().Unique
			r.Push(pkt(uint16(2*i+1), 0), 0)
			recovered := r.Snapshot().Unique == before+1
			if want := i >= lost-maxLostTracked; recovered != want {
				t.Fatalf("run %d: late arrival of declared-lost packet %d of %d recovered=%v, want %v", run, i, lost, recovered, want)
			}
		}
		if st := r.Snapshot(); st.Late != lost {
			t.Errorf("run %d: late = %d, want %d", run, st.Late, lost)
		}
	}
}
