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
		r.Push(pkt(s, uint32(s)), uint32(s))
	}
	st := r.Snapshot()
	if st.Received != 10 || st.Unique != 10 || st.Duplicates != 0 || st.Late != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.ExpectedTotal != 10 {
		t.Errorf("expected = %d, want 10", st.ExpectedTotal)
	}
}

// TestReceiverDuplicatesAndLate: a packet behind the highest seq is
// late, and unique unless its seq already arrived; a repeat of the
// highest seq is a duplicate but not late; one further behind than the
// window is late and counted neither way.
func TestReceiverDuplicatesAndLate(t *testing.T) {
	r := NewReceiver(8)
	for _, s := range []uint16{10, 11, 13} {
		r.Push(pkt(s, uint32(s)), uint32(s))
	}
	r.Push(pkt(12, 12), 14) // late, first copy
	r.Push(pkt(10, 10), 15) // late duplicate
	r.Push(pkt(13, 13), 16) // duplicate of the highest
	st := r.Snapshot()
	if st.Received != 6 || st.Unique != 4 || st.Late != 2 || st.Duplicates != 2 {
		t.Errorf("stats: %+v, want received 6 unique 4 late 2 dups 2", st)
	}
	r.Push(pkt(30, 30), 30)
	r.Push(pkt(21, 21), 31) // 9 behind a window of 8
	st = r.Snapshot()
	if st.Unique != 5 || st.Late != 3 || st.Duplicates != 2 {
		t.Errorf("past the window: %+v, want unique 5 late 3 dups 2", st)
	}
}

func TestReceiverWrapAround(t *testing.T) {
	r := NewReceiver(16)
	seqs := []uint16{65533, 65534, 65535, 0, 1, 2}
	for i, s := range seqs {
		r.Push(pkt(s, uint32(i)), uint32(i))
	}
	st := r.Snapshot()
	if st.ExpectedTotal != uint64(len(seqs)) {
		t.Errorf("expected across wrap = %d, want %d", st.ExpectedTotal, len(seqs))
	}
	if st.Unique != uint64(len(seqs)) || st.Late != 0 {
		t.Errorf("across wrap: %+v", st)
	}
	r.Push(pkt(65535, 9), 9) // 3 behind, across the wrap
	if st := r.Snapshot(); st.Duplicates != 1 || st.Late != 1 {
		t.Errorf("repeat across wrap: %+v", st)
	}
}

// TestReceiverNewSSRCStartsStream: a base station frames each relayed
// share under its own SSRC from seq 0, so a sender's second share must
// count as a new stream (RFC 3550 §8.2), not as 16 late repeats.
func TestReceiverNewSSRCStartsStream(t *testing.T) {
	r := NewReceiver(64)
	share := func(ssrc uint32, lose uint16) {
		for s := uint16(0); s < 16; s++ {
			if s != lose {
				r.Push(Packet{SSRC: ssrc, Seq: s, Timestamp: 7}, 9)
			}
		}
	}
	share(1, 99)
	share(2, 99)
	share(3, 5)
	st := r.Snapshot()
	if st.Received != 47 || st.Unique != 47 || st.ExpectedTotal != 48 || st.Late != 0 || st.Duplicates != 0 {
		t.Errorf("three shares, one packet lost: %+v", st)
	}
	if rr := r.Report(0); rr.CumLost != 1 || rr.HighestSeq != 15 {
		t.Errorf("report: %+v, want cumLost 1 highest 15", rr)
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
	// 10 sent, seqs 3 and 7 lost.
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
	r := NewReceiver(64)
	// Sender emits seqs 0..9; seq 4 is lost on the wire.  Everything
	// else arrives, and 0..3 and 5..7 arrive twice.
	for s := uint16(0); s < 4; s++ {
		r.Push(pkt(s, uint32(s)), uint32(s))
		r.Push(pkt(s, uint32(s)), uint32(s))
	}
	for s := uint16(5); s < 8; s++ {
		r.Push(pkt(s, uint32(s)), uint32(s))
		r.Push(pkt(s, uint32(s)), uint32(s))
	}
	r.Push(pkt(8, 8), 8)
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
