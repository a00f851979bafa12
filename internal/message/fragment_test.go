package message

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// fragmentsOf wraps payload at an MTU that leaves chunk bytes per
// fragment and parses the fragments back off the datagrams: the
// reassembler's input, as the envelope makes it.
func fragmentsOf(t *testing.T, payload []byte, chunk int) []Fragment {
	t.Helper()
	dgs, err := (&Enveloper{MTU: 1 + fragHeaderLen + chunk}).Wrap(payload)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]Fragment, len(dgs))
	for i, d := range dgs {
		if d[0] != envFragment {
			t.Fatalf("datagram %d has tag 0x%02X, want a fragment", i, d[0])
		}
		if frags[i], err = parseFragment(d[1:]); err != nil {
			t.Fatal(err)
		}
	}
	return frags
}

func TestFragmentMarshalRoundTrip(t *testing.T) {
	f := Fragment{MsgID: 123456789, Index: 3, Count: 9, Chunk: []byte("hello")}
	got, err := parseFragment(f.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.MsgID != f.MsgID || got.Index != f.Index || got.Count != f.Count ||
		!bytes.Equal(got.Chunk, f.Chunk) {
		t.Errorf("round trip: %+v vs %+v", got, f)
	}

	if _, err := parseFragment(nil); !errors.Is(err, ErrFragHeader) {
		t.Errorf("nil frame: %v", err)
	}
	frame := f.AppendMarshal(nil)
	if _, err := parseFragment(frame[:len(frame)-1]); !errors.Is(err, ErrFragHeader) {
		t.Errorf("short frame: %v", err)
	}
	bad := Fragment{MsgID: 1, Index: 5, Count: 5, Chunk: nil} // index >= count
	if _, err := parseFragment(bad.AppendMarshal(nil)); !errors.Is(err, ErrFragHeader) {
		t.Errorf("bad index: %v", err)
	}
}

func TestReassemblerInOrder(t *testing.T) {
	payload := []byte("0123456789abcdefghij")
	frags := fragmentsOf(t, payload, 3)
	r := NewReassembler()
	for i, f := range frags {
		out, done, err := r.Add(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(frags)-1 {
			if done {
				t.Fatalf("premature completion at fragment %d", i)
			}
		} else {
			if !done || !bytes.Equal(out, payload) {
				t.Fatalf("final: done=%v out=%q", done, out)
			}
		}
	}
	if len(r.pending) != 0 {
		t.Errorf("pending = %d after completion", len(r.pending))
	}
	// The state is kept for the next message, holding no datagram.
	if len(r.free) != 1 {
		t.Fatalf("%d chunk lists kept for reuse, want 1", len(r.free))
	}
	for i, c := range r.free[0][:cap(r.free[0])] {
		if c.data != nil {
			t.Errorf("a recycled chunk list still holds fragment %d's bytes", i)
		}
	}
}

func TestReassemblerReorderAndDuplicates(t *testing.T) {
	payload := bytes.Repeat([]byte("xyz"), 50)
	frags := fragmentsOf(t, payload, 7)
	r := NewReassembler()
	order := rand.New(rand.NewSource(1)).Perm(len(frags))
	var got []byte
	for n, idx := range order {
		// Send each fragment twice: duplicates must be harmless.  Note a
		// duplicate arriving after completion starts a fresh partial
		// message (the reassembler cannot distinguish it from a
		// retransmission of a new message with a recycled ID), so only
		// the first completion carries the payload.
		for rep := 0; rep < 2; rep++ {
			out, done, err := r.Add(frags[idx], nil)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				if n != len(order)-1 {
					t.Fatal("premature completion")
				}
				got = out
			}
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reordered reassembly mismatch: %d vs %d bytes", len(got), len(payload))
	}
}

// TestReassemblerScratch: with the caller's scratch a completed payload
// is written into it, the scratch reused while it is large enough and
// replaced by a larger one when it is not; with none each payload is a
// buffer of its own, which nothing reassembled later overwrites.  A
// receive loop that is done with each frame may lend one scratch; a
// receiver that keeps payloads (a viewer's chunks) must not.
func TestReassemblerScratch(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte("a"), 90),
		bytes.Repeat([]byte("b"), 60),
		bytes.Repeat([]byte("c"), 150),
	}
	complete := func(r *Reassembler, msg int, buf *[]byte) []byte {
		t.Helper()
		frags := fragmentsOf(t, payloads[msg], 16)
		for i := range frags {
			frags[i].MsgID = uint64(msg + 1)
			out, done, err := r.Add(frags[i], buf)
			if err != nil || done != (i == len(frags)-1) {
				t.Fatalf("payload %d, fragment %d of %d: done %v, %v", msg, i, len(frags), done, err)
			}
			if done {
				return out
			}
		}
		return nil
	}

	r := NewReassembler()
	var fresh [][]byte
	for msg := range payloads {
		fresh = append(fresh, complete(r, msg, nil))
	}
	for msg, out := range fresh {
		if !bytes.Equal(out, payloads[msg]) || cap(out) != len(payloads[msg]) {
			t.Errorf("fresh payload %d reads %q (cap %d) after later messages, want its own %d bytes", msg, out, cap(out), len(payloads[msg]))
		}
	}

	var scratch []byte
	first := complete(r, 0, &scratch)
	second := complete(r, 1, &scratch)
	if !bytes.Equal(second, payloads[1]) || &second[0] != &first[0] || &scratch[:1][0] != &first[0] {
		t.Errorf("a shorter payload was not written into the scratch the first one left")
	}
	if !bytes.Equal(first[:len(payloads[1])], payloads[1]) {
		t.Errorf("the scratch was not reused: the first payload still reads %q", first)
	}
	third := complete(r, 2, &scratch)
	if !bytes.Equal(third, payloads[2]) || &scratch[:1][0] != &third[0] || cap(scratch) < len(payloads[2]) {
		t.Errorf("a longer payload: got %q, scratch cap %d", third, cap(scratch))
	}
}

func TestReassemblerMismatchAndValidation(t *testing.T) {
	r := NewReassembler()
	r.Add(Fragment{MsgID: 1, Index: 0, Count: 3, Chunk: []byte("a")}, nil)
	if _, _, err := r.Add(Fragment{MsgID: 1, Index: 1, Count: 4, Chunk: []byte("b")}, nil); !errors.Is(err, ErrFragMismatch) {
		t.Errorf("count mismatch: %v", err)
	}
	if _, _, err := r.Add(Fragment{MsgID: 2, Index: 0, Count: 0}, nil); !errors.Is(err, ErrFragHeader) {
		t.Errorf("zero count: %v", err)
	}
	if _, _, err := r.Add(Fragment{MsgID: 2, Index: 7, Count: 3}, nil); !errors.Is(err, ErrFragHeader) {
		t.Errorf("index out of range: %v", err)
	}
}

func TestReassemblerEviction(t *testing.T) {
	r := NewReassembler()
	// maxPending incomplete messages with varying completeness.
	for id := uint64(1); id <= maxPending; id++ {
		for i := uint16(0); i < uint16(id); i++ { // msg 1 is least complete
			r.Add(Fragment{MsgID: id, Index: i, Count: 2 * maxPending, Chunk: []byte{byte(id)}}, nil)
		}
	}
	if len(r.pending) != maxPending {
		t.Fatalf("pending = %d", len(r.pending))
	}
	// One more message forces eviction of the least-complete (msg 1).
	r.Add(Fragment{MsgID: maxPending + 1, Index: 0, Count: 2, Chunk: []byte("x")}, nil)
	if len(r.pending) != maxPending {
		t.Fatalf("pending after eviction = %d", len(r.pending))
	}
	if _, ok := r.pending[1]; ok {
		t.Error("least-complete message should have been evicted")
	}
	if _, ok := r.pending[maxPending]; !ok {
		t.Error("most-complete message should survive eviction")
	}
}

// TestQuickFragmentMarshalRoundTrip: marshal/unmarshal is the identity
// on valid fragments.
func TestQuickFragmentMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		count := uint16(1 + r.Intn(1000))
		fr := Fragment{
			MsgID: r.Uint64(),
			Index: uint16(r.Intn(int(count))),
			Count: count,
			Chunk: randBytes(r, 300),
		}
		got, err := parseFragment(fr.AppendMarshal(nil))
		return err == nil && got.MsgID == fr.MsgID && got.Index == fr.Index &&
			got.Count == fr.Count && bytes.Equal(got.Chunk, fr.Chunk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
