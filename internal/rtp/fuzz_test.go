package rtp

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRTPUnmarshal: every data frame's body is read by Unmarshal at a
// receiver, straight off the network.  No input panics it; whatever it
// accepts marshals back to the very same bytes (a frame this format
// never writes — padding, extension, a CSRC list — is refused, not half
// read); and any packet survives Marshal then Unmarshal, with the fuzzed
// bytes as its payload.  Seeds: testdata/fuzz/FuzzRTPUnmarshal.
func FuzzRTPUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, pt uint8, marker bool, seq uint16, ts, ssrc uint32) {
		if p, err := Unmarshal(frame); err == nil {
			if again := p.Marshal(); !bytes.Equal(again, frame) {
				t.Fatalf("accepted %x, marshals back to %x", frame, again)
			}
		}
		p := Packet{PayloadType: pt & 0x7F, Marker: marker, Seq: seq, Timestamp: ts, SSRC: ssrc, Payload: frame}
		if got, err := Unmarshal(p.Marshal()); err != nil || !samePacket(got, p) {
			t.Fatalf("round trip: %+v → %+v (%v)", p, got, err)
		}
	})
}

// FuzzReceiver: sequence numbers and SSRCs come off the wire.  The
// stream is 11-byte records — SSRC (one byte, so streams switch often),
// seq, timestamp, arrival — pushed into a receiver of the fuzzed window
// with a report every seventh packet.  No stream panics it; a packet
// counts as unique or duplicate at most once, and as late at most once;
// every report's fraction lost is in [0, 1] and its cumulative loss is
// not negative; and on one SSRC whose seqs all lie within 64 of each
// other without wrapping, Unique is the number of distinct seqs.
// Seeds: testdata/fuzz/FuzzReceiver.
func FuzzReceiver(f *testing.F) {
	f.Fuzz(func(t *testing.T, window int, stream []byte) {
		r, r64 := NewReceiver(window), NewReceiver(64)
		distinct := map[uint16]bool{}
		oneSSRC, first, lo, hi := true, uint32(0), uint16(0xFFFF), uint16(0)
		for i := 0; len(stream) >= 11; i, stream = i+1, stream[11:] {
			p := Packet{SSRC: uint32(stream[0]), Seq: binary.BigEndian.Uint16(stream[1:]),
				Timestamp: binary.BigEndian.Uint32(stream[3:])}
			arrival := binary.BigEndian.Uint32(stream[7:])
			r.Push(p, arrival)
			r64.Push(p, arrival)
			if i%7 == 6 {
				checkReport(t, r.Report(p.SSRC))
			}
			if i == 0 {
				first = p.SSRC
			}
			oneSSRC = oneSSRC && p.SSRC == first
			distinct[p.Seq] = true
			lo, hi = min(lo, p.Seq), max(hi, p.Seq)
		}
		checkReport(t, r.Report(0))
		st := r.Snapshot()
		if st.Unique+st.Duplicates > st.Received || st.Late > st.Received {
			t.Fatalf("counts exceed arrivals: %+v", st)
		}
		if oneSSRC && hi-lo <= 64 {
			if got := r64.Snapshot().Unique; got != uint64(len(distinct)) {
				t.Fatalf("one SSRC, seqs %d..%d: unique %d, want %d distinct", lo, hi, got, len(distinct))
			}
		}
	})
}

func checkReport(t *testing.T, rr ReceiverReport) {
	t.Helper()
	if rr.FractionLost < 0 || rr.FractionLost > 1 || rr.CumLost < 0 {
		t.Fatalf("report %+v out of range", rr)
	}
}

func samePacket(a, b Packet) bool {
	return a.PayloadType == b.PayloadType && a.Marker == b.Marker && a.Seq == b.Seq &&
		a.Timestamp == b.Timestamp && a.SSRC == b.SSRC && bytes.Equal(a.Payload, b.Payload)
}
