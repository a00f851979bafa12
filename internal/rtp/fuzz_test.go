package rtp

import (
	"bytes"
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

func samePacket(a, b Packet) bool {
	return a.PayloadType == b.PayloadType && a.Marker == b.Marker && a.Seq == b.Seq &&
		a.Timestamp == b.Timestamp && a.SSRC == b.SSRC && bytes.Equal(a.Payload, b.Payload)
}
