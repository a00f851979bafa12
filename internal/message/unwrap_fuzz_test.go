package message

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// Allocation bound for FuzzUnwrap: whatever the datagrams, an
// Unwrapper allocates at most unwrapAllocBase plus unwrapAllocPerByte
// bytes for every byte it is fed.  A fragment's reassembly state grows
// with the fragments that arrived, never with the count one claims.
const (
	unwrapAllocBase    = 64 << 10
	unwrapAllocPerByte = 64
)

var fuzzPeers = [2]string{"peer-a", "peer-b"}

// peerDatagram is one datagram of a fuzz input and the peer it came from.
type peerDatagram struct {
	peer string
	data []byte
}

// splitDatagrams reads a fuzz input as records — a peer byte (its low
// bit picks one of two peers), a big-endian u16 length, that many
// datagram bytes — up to the first record cut short.
func splitDatagrams(in []byte) []peerDatagram {
	var out []peerDatagram
	for len(in) >= 3 {
		n := int(binary.BigEndian.Uint16(in[1:]))
		if len(in)-3 < n {
			break
		}
		out = append(out, peerDatagram{peer: fuzzPeers[in[0]&1], data: in[3 : 3+n]})
		in = in[3+n:]
	}
	return out
}

// envelopeOf reads a datagram the way Unwrap does: the payload after
// the tag and any trace extension, and whether it is a fragment.
func envelopeOf(d []byte) (payload []byte, fragment, ok bool) {
	if len(d) == 0 {
		return nil, false, false
	}
	payload = d[1:]
	if d[0] == envWholeTraced || d[0] == envFragmentTraced {
		var err error
		if _, payload, err = splitTraceBlob(payload); err != nil {
			return nil, false, false
		}
	}
	switch d[0] {
	case envWhole, envWholeTraced:
		return payload, false, true
	case envFragment, envFragmentTraced:
		return payload, true, true
	}
	return nil, false, false
}

// FuzzUnwrap feeds one Unwrapper datagrams from two peers.  Whatever the
// bytes it must not panic; every frame a fragment completes must be the
// distinct chunks its message received, first arrival of each index,
// concatenated in index order; and what it allocates stays within a
// constant plus a fixed multiple of the bytes fed.
//
// The seed corpus (testdata/fuzz/FuzzUnwrap) holds fragments out of
// order, duplicated with different bytes, with a count that disagrees
// with their siblings', claiming 65 535 siblings (enough of them to
// force eviction), and in the traced 0x03 form.
func FuzzUnwrap(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		dgs := splitDatagrams(in)
		checkUnwrap(t, dgs)

		u := NewUnwrapper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, d := range dgs {
			u.Unwrap(d.peer, d.data)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(unwrapAllocBase+unwrapAllocPerByte*len(in)); got > limit {
			t.Errorf("%d datagrams (%d B) allocated %d B, limit %d", len(dgs), len(in), got, limit)
		}
	})
}

// checkUnwrap unwraps dgs in order against a model that records each
// pending message's distinct chunks and forgets the messages the
// reassembler evicted.  A second Unwrapper reads the same datagrams
// into one scratch buffer (UnwrapInto) and must complete the same
// frames with the same errors; the fresh frames the first one returned
// must still hold their bytes at the end, whatever was reassembled
// after them.
func checkUnwrap(t *testing.T, dgs []peerDatagram) {
	t.Helper()
	u, scratched := NewUnwrapper(), NewUnwrapper()
	var scratch []byte
	type kept struct{ frame, want []byte }
	var fresh []kept
	defer func() {
		for i, k := range fresh {
			if !bytes.Equal(k.frame, k.want) {
				t.Fatalf("fresh frame %d was overwritten: %x, completed as %x", i, k.frame, k.want)
			}
		}
	}()
	held := make(map[string]map[uint64]map[uint16][]byte)
	for i, d := range dgs {
		frame, err := u.Unwrap(d.peer, d.data)
		into, intoErr := scratched.UnwrapInto(d.peer, d.data, &scratch)
		if !bytes.Equal(frame, into) || (frame == nil) != (into == nil) || fmt.Sprint(err) != fmt.Sprint(intoErr) {
			t.Fatalf("datagram %d: Unwrap gave %x (%v), UnwrapInto %x (%v)", i, frame, err, into, intoErr)
		}
		if err != nil {
			if frame != nil {
				t.Fatalf("datagram %d: a frame and an error (%v)", i, err)
			}
			continue
		}
		payload, isFrag, ok := envelopeOf(d.data)
		if !ok {
			t.Fatalf("datagram %d: unwrapped an envelope the model rejects: % x", i, d.data)
		}
		if !isFrag {
			if !bytes.Equal(frame, payload) {
				t.Fatalf("datagram %d: whole frame %x, payload %x", i, frame, payload)
			}
			continue
		}
		frag, err := parseFragment(payload)
		if err != nil {
			t.Fatalf("datagram %d: accepted a fragment that does not parse: %v", i, err)
		}
		msgs := held[d.peer]
		if msgs == nil {
			msgs = make(map[uint64]map[uint16][]byte)
			held[d.peer] = msgs
		}
		chunks := msgs[frag.MsgID]
		if chunks == nil {
			chunks = make(map[uint16][]byte)
			msgs[frag.MsgID] = chunks
		}
		if _, dup := chunks[frag.Index]; !dup {
			chunks[frag.Index] = bytes.Clone(frag.Chunk)
		}
		if frame != nil {
			if len(chunks) != int(frag.Count) {
				t.Fatalf("datagram %d: message %d completed with %d of %d chunks", i, frag.MsgID, len(chunks), frag.Count)
			}
			var want []byte
			for idx := uint16(0); idx < frag.Count; idx++ {
				want = append(want, chunks[idx]...)
			}
			if !bytes.Equal(frame, want) {
				t.Fatalf("datagram %d: message %d completed as %x, its chunks in order are %x", i, frag.MsgID, frame, want)
			}
			fresh = append(fresh, kept{frame, want})
			delete(msgs, frag.MsgID)
		}
		pending := u.peers[d.peer].pending
		for id := range msgs {
			if _, ok := pending[id]; !ok {
				delete(msgs, id)
			}
		}
	}
}
