package message

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitBasic(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 100) // 800 bytes
	frags, err := Split(7, payload, 128)
	if err != nil {
		t.Fatal(err)
	}
	chunk := 128 - fragHeaderLen
	wantCount := (len(payload) + chunk - 1) / chunk
	if len(frags) != wantCount {
		t.Fatalf("got %d fragments, want %d", len(frags), wantCount)
	}
	var total int
	for i, f := range frags {
		if f.MsgID != 7 || int(f.Index) != i || int(f.Count) != wantCount {
			t.Errorf("fragment %d header: %+v", i, f)
		}
		if len(f.AppendMarshal(nil)) > 128 {
			t.Errorf("fragment %d exceeds MTU: %d", i, len(f.AppendMarshal(nil)))
		}
		total += len(f.Chunk)
	}
	if total != len(payload) {
		t.Errorf("chunks total %d, want %d", total, len(payload))
	}
}

func TestSplitEdgeCases(t *testing.T) {
	if _, err := Split(1, []byte("x"), fragHeaderLen); !errors.Is(err, ErrFragMTU) {
		t.Errorf("tiny MTU: %v", err)
	}
	frags, err := Split(1, nil, 64)
	if err != nil || len(frags) != 1 || len(frags[0].Chunk) != 0 {
		t.Errorf("empty payload: %v, %v", frags, err)
	}
	// Exactly one chunk.
	frags, err = Split(1, make([]byte, 48), 48+fragHeaderLen)
	if err != nil || len(frags) != 1 {
		t.Errorf("exact fit: %d frags, %v", len(frags), err)
	}
	// Too many fragments for the header.
	if _, err := Split(1, make([]byte, (MaxFragments+1)*1), fragHeaderLen+1); !errors.Is(err, ErrFragTooMany) {
		t.Errorf("too many fragments: %v", err)
	}
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
	frags, _ := Split(1, payload, fragHeaderLen+4)
	r := NewReassembler()
	for i, f := range frags {
		out, done, err := r.Add(f)
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
}

func TestReassemblerReorderAndDuplicates(t *testing.T) {
	payload := bytes.Repeat([]byte("xyz"), 50)
	frags, _ := Split(9, payload, fragHeaderLen+7)
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
			out, done, err := r.Add(frags[idx])
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

func TestReassemblerMismatchAndValidation(t *testing.T) {
	r := NewReassembler()
	r.Add(Fragment{MsgID: 1, Index: 0, Count: 3, Chunk: []byte("a")})
	if _, _, err := r.Add(Fragment{MsgID: 1, Index: 1, Count: 4, Chunk: []byte("b")}); !errors.Is(err, ErrFragMismatch) {
		t.Errorf("count mismatch: %v", err)
	}
	if _, _, err := r.Add(Fragment{MsgID: 2, Index: 0, Count: 0}); !errors.Is(err, ErrFragHeader) {
		t.Errorf("zero count: %v", err)
	}
	if _, _, err := r.Add(Fragment{MsgID: 2, Index: 7, Count: 3}); !errors.Is(err, ErrFragHeader) {
		t.Errorf("index out of range: %v", err)
	}
}

func TestReassemblerEviction(t *testing.T) {
	r := NewReassembler()
	r.MaxPending = 4
	// Four incomplete messages with varying completeness.
	for id := uint64(1); id <= 4; id++ {
		for i := uint16(0); i < uint16(id); i++ { // msg 1 is least complete
			r.Add(Fragment{MsgID: id, Index: i, Count: 10, Chunk: []byte{byte(id)}})
		}
	}
	if len(r.pending) != 4 {
		t.Fatalf("pending = %d", len(r.pending))
	}
	// A fifth message forces eviction of the least-complete (msg 1).
	r.Add(Fragment{MsgID: 5, Index: 0, Count: 2, Chunk: []byte("x")})
	if len(r.pending) != 4 {
		t.Fatalf("pending after eviction = %d", len(r.pending))
	}
	if _, ok := r.pending[1]; ok {
		t.Error("least-complete message should have been evicted")
	}
	if _, ok := r.pending[4]; !ok {
		t.Error("most-complete message should survive eviction")
	}
}

// TestQuickSplitReassembleIdentity: for arbitrary payloads, MTUs and
// delivery orders (with duplication), reassembly reproduces the
// payload exactly.
func TestQuickSplitReassembleIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		payload := randBytes(r, 4096)
		mtu := fragHeaderLen + 1 + r.Intn(512)
		frags, err := Split(uint64(seed), payload, mtu)
		if err != nil {
			return false
		}
		ra := NewReassembler()
		order := r.Perm(len(frags))
		var out []byte
		var done bool
		for _, idx := range order {
			for reps := 1 + r.Intn(2); reps > 0; reps-- {
				o, d, err := ra.Add(frags[idx])
				if err != nil {
					return false
				}
				if d {
					out, done = o, true
				}
			}
		}
		return done && bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
