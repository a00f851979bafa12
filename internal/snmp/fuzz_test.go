package snmp

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// FuzzDecodeMessage: the agent decodes whatever arrives on its UDP
// socket (cmd/snmpd), so DecodeMessage and Agent.HandleFrame must never
// panic on any input.  A message DecodeMessage accepts must survive
// EncodeMessage and decode back equal, and the agent must answer it
// with an encodable response or drop it.  Nothing may be sized from a
// length field before it is checked against the input: decoding
// allocates in proportion to the frame, never to what its headers
// claim.
//
// Every input is decoded twice: fresh, and into a warm Message still
// holding the previous input, as the agent and a monitor decode.  The
// two must agree field for field, or fail with the same error and
// leave the warm Message empty, so nothing of the previous input
// survives and nothing aliases the frame.  A warm decode of a valid
// GET of up to 8 varbinds, decoded again, allocates nothing.
//
// Seeds (testdata/fuzz/FuzzDecodeMessage): a GetRequest, a GetBulk, a
// SetRequest whose value needs a long-form length, a frame declaring a
// 5-octet length, a GetResponse carrying a 9-byte Counter64, a cut-off
// GetRequest, a GetResponse carrying an OctetString, a GetRequest whose
// second OID is longer than any other seed's, and the inputs that used
// to be misread: a first OID subidentifier past 2.(2^32-1), a
// subidentifier that wrapped past 2^64, and a request-id wider than 32
// bits.
func FuzzDecodeMessage(f *testing.F) {
	warm := new(Message) // inputs run one at a time in a worker
	f.Fuzz(func(t *testing.T, frame []byte) {
		mib, _ := testMIB(t) // fresh per input: a SET must not leak into the next
		agent := NewAgent(mib)
		agent.ReadCommunity, agent.WriteCommunity = "public", "private"
		var m *Message
		var err error
		if n := allocatedBytes(func() { m, err = DecodeMessage(frame) }); n > decodeAllocBound(len(frame)) {
			t.Fatalf("decoding %d B allocated %d B", len(frame), n)
		}
		scribbled := append([]byte(nil), frame...)
		werr := warm.Decode(scribbled)
		for i := range scribbled {
			scribbled[i] ^= 0xFF
		}
		switch {
		case err != nil && (werr == nil || werr.Error() != err.Error()):
			t.Fatalf("fresh decode failed (%v), warm decode gave %v", err, werr)
		case err != nil && !identical(warm, &Message{}):
			t.Fatalf("a failed warm decode left %+v", warm)
		case err == nil && (werr != nil || !identical(warm, m)):
			t.Fatalf("warm decode = %+v (%v), fresh = %+v", warm, werr, m)
		}
		if err == nil && m.PDU.Type == GetRequest && len(m.PDU.VarBinds) <= 8 {
			if n := testing.AllocsPerRun(50, func() { warm.Decode(frame) }); n != 0 {
				t.Fatalf("a warm decode of a %d-varbind GET allocated %v times", len(m.PDU.VarBinds), n)
			}
		}

		resp, herr := agent.HandleFrame(nil, frame)
		if err != nil {
			if herr == nil || resp != nil {
				t.Fatalf("DecodeMessage refused the frame (%v), HandleFrame answered %x (%v)", err, resp, herr)
			}
			return
		}
		again, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("accepted %+v, cannot encode it: %v", m, err)
		}
		back, err := DecodeMessage(again)
		if err != nil || !sameMessage(back, m) {
			t.Fatalf("decode(encode(m)) = %+v (%v), want %+v", back, err, m)
		}
		if herr != nil {
			t.Fatalf("the agent failed on a valid request: %v", herr)
		}
		if resp == nil {
			return
		}
		r, err := DecodeMessage(resp)
		if err != nil || r.PDU.Type != GetResponse || r.PDU.RequestID != m.PDU.RequestID {
			t.Fatalf("answer to %s #%d decodes to %+v (%v)", m.PDU.Type, m.PDU.RequestID, r, err)
		}
	})
}

// decodeAllocBound is what decoding a frame of n bytes may allocate:
// a few dozen bytes of Message per input byte (a 7-byte varbind is a
// VarBind and its OID, in a slice grown by doubling), plus slack for
// error values and for whatever the fuzzing engine allocates meanwhile.
// A length field obeyed before it is checked claims up to 4 GB.
func decodeAllocBound(n int) uint64 { return uint64(64*n) + 64<<10 }

func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func sameMessage(a, b *Message) bool {
	return a.Version == b.Version && a.Community == b.Community && a.PDU.Type == b.PDU.Type &&
		a.PDU.RequestID == b.PDU.RequestID && a.PDU.ErrorStatus == b.PDU.ErrorStatus &&
		a.PDU.ErrorIndex == b.PDU.ErrorIndex &&
		slices.EqualFunc(a.PDU.VarBinds, b.PDU.VarBinds, func(x, y VarBind) bool {
			return slices.Equal(x.OID, y.OID) && valuesEqual(x.Value, y.Value)
		})
}

// identical is sameMessage over every field of every value, whatever
// its type: a field the message's type leaves unused must be empty in
// both, so a warm Message that kept anything of an earlier one differs.
func identical(a, b *Message) bool {
	return a.Version == b.Version && a.Community == b.Community && a.PDU.Type == b.PDU.Type &&
		a.PDU.RequestID == b.PDU.RequestID && a.PDU.ErrorStatus == b.PDU.ErrorStatus &&
		a.PDU.ErrorIndex == b.PDU.ErrorIndex &&
		slices.EqualFunc(a.PDU.VarBinds, b.PDU.VarBinds, func(x, y VarBind) bool {
			return slices.Equal(x.OID, y.OID) && x.Value.Type == y.Value.Type && x.Value.Int == y.Value.Int &&
				x.Value.Uint == y.Value.Uint && bytes.Equal(x.Value.Bytes, y.Value.Bytes) &&
				slices.Equal(x.Value.OID, y.Value.OID) && x.Value.IP == y.Value.IP
		})
}
