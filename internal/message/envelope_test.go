package message

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEnvelopeWholeFrame(t *testing.T) {
	e := &Enveloper{MTU: 128}
	u := NewUnwrapper()
	frame := []byte("small frame")

	dgs, err := e.Wrap(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 || len(dgs[0]) != len(frame)+1 {
		t.Fatalf("whole wrap: %d datagrams, %d bytes", len(dgs), len(dgs[0]))
	}
	got, err := u.Unwrap("peer", dgs[0])
	if err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("unwrap: %q, %v", got, err)
	}
}

func TestEnvelopeFragmentsLargeFrame(t *testing.T) {
	e := &Enveloper{MTU: 100}
	u := NewUnwrapper()
	frame := make([]byte, 1000)
	for i := range frame {
		frame[i] = byte(i)
	}

	dgs, err := e.Wrap(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) < 10 {
		t.Fatalf("expected many fragments, got %d", len(dgs))
	}
	for i, d := range dgs {
		if len(d) > 100 {
			t.Fatalf("datagram %d exceeds MTU: %d", i, len(d))
		}
	}
	// Deliver out of order; only the last completes.
	order := rand.New(rand.NewSource(1)).Perm(len(dgs))
	var got []byte
	for _, i := range order {
		f, err := u.Unwrap("peer", dgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			if got != nil {
				t.Fatal("completed twice")
			}
			got = f
		}
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("reassembled frame differs")
	}
}

// TestEnvelopeFragmentHeaders: a frame too large for one datagram goes
// as fragments of one message ID, indexed in order, each datagram within
// the MTU and each but the last full, their chunks adding up to the
// frame.
func TestEnvelopeFragmentHeaders(t *testing.T) {
	const mtu = 128
	frame := bytes.Repeat([]byte("abcdefgh"), 100) // 800 bytes
	e := &Enveloper{MTU: mtu}
	e.Wrap(frame) // message ID 1; this frame's is 2
	dgs, err := e.Wrap(frame)
	if err != nil {
		t.Fatal(err)
	}
	chunk := mtu - 1 - fragHeaderLen
	want := (len(frame) + chunk - 1) / chunk
	if len(dgs) != want {
		t.Fatalf("got %d fragments, want %d", len(dgs), want)
	}
	var total []byte
	for i, d := range dgs {
		if len(d) > mtu || (i < want-1 && len(d) != mtu) {
			t.Errorf("datagram %d is %d bytes at MTU %d", i, len(d), mtu)
		}
		f, err := parseFragment(d[1:])
		if err != nil || d[0] != envFragment || f.MsgID != 2 || int(f.Index) != i || int(f.Count) != want {
			t.Errorf("datagram %d: tag 0x%02X, fragment %+v, %v", i, d[0], f, err)
		}
		total = append(total, f.Chunk...)
	}
	if !bytes.Equal(total, frame) {
		t.Errorf("chunks hold %d bytes, not the %d-byte frame", len(total), len(frame))
	}
}

// TestEnvelopeFragmentEdgeCases: an MTU with no room for a chunk and a
// frame needing more fragments than the header can count are errors;
// an empty frame is one datagram, and a frame of exactly two chunks is
// two full datagrams.
func TestEnvelopeFragmentEdgeCases(t *testing.T) {
	if _, err := (&Enveloper{MTU: 1 + fragHeaderLen}).Wrap(make([]byte, 100)); !errors.Is(err, ErrFragMTU) {
		t.Errorf("MTU below the fragment header: %v", err)
	}
	if _, err := (&Enveloper{MTU: 2 + fragHeaderLen}).Wrap(make([]byte, MaxFragments+1)); !errors.Is(err, ErrFragTooMany) {
		t.Errorf("more than %d fragments: %v", MaxFragments, err)
	}
	if dgs, err := (&Enveloper{MTU: 64}).Wrap(nil); err != nil || len(dgs) != 1 || !bytes.Equal(dgs[0], []byte{envWhole}) {
		t.Errorf("empty frame: %v, %v", dgs, err)
	}
	const chunk = 48
	dgs, err := (&Enveloper{MTU: 1 + fragHeaderLen + chunk}).Wrap(make([]byte, 2*chunk))
	if err != nil || len(dgs) != 2 || len(dgs[0]) != len(dgs[1]) || len(dgs[1]) != 1+fragHeaderLen+chunk {
		t.Errorf("two exact chunks: %d datagrams, %v", len(dgs), err)
	}
}

func TestEnvelopePeerIsolation(t *testing.T) {
	e1 := &Enveloper{MTU: 64}
	e2 := &Enveloper{MTU: 64}
	u := NewUnwrapper()
	f1 := bytes.Repeat([]byte{1}, 300)
	f2 := bytes.Repeat([]byte{2}, 300)
	d1, _ := e1.Wrap(f1)
	d2, _ := e2.Wrap(f2)
	// Both envelopers started at fragment ID 1: without per-peer state
	// their fragments would collide.  Interleave them.
	var got1, got2 []byte
	for i := range d1 {
		if f, _ := u.Unwrap("peer-1", d1[i]); f != nil {
			got1 = f
		}
		if f, _ := u.Unwrap("peer-2", d2[i]); f != nil {
			got2 = f
		}
	}
	if !bytes.Equal(got1, f1) || !bytes.Equal(got2, f2) {
		t.Fatal("cross-peer fragment interference")
	}

}

func TestEnvelopeRejects(t *testing.T) {
	u := NewUnwrapper()
	if _, err := u.Unwrap("p", nil); err == nil {
		t.Error("empty datagram accepted")
	}
	if _, err := u.Unwrap("p", []byte{0x7F, 1, 2}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := u.Unwrap("p", []byte{0x01, 1, 2}); err == nil {
		t.Error("malformed fragment accepted")
	}
	// Whole with empty frame is legal (decodes upstream as truncated).
	f, err := u.Unwrap("p", []byte{0x00})
	if err != nil || len(f) != 0 {
		t.Errorf("empty whole: %v, %v", f, err)
	}
}

// TestQuickEnvelopeRoundTrip: arbitrary frames at arbitrary MTUs
// survive wrap/unwrap under random delivery order.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mtu := 20 + r.Intn(500)
		frame := make([]byte, r.Intn(5000))
		r.Read(frame)
		e := &Enveloper{MTU: mtu}
		u := NewUnwrapper()
		dgs, err := e.Wrap(frame)
		if err != nil {
			return false
		}
		var got []byte
		for _, i := range r.Perm(len(dgs)) {
			out, err := u.Unwrap("p", dgs[i])
			if err != nil {
				return false
			}
			if out != nil {
				got = out
			}
		}
		return bytes.Equal(got, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWrapUnwrapIdentity: for arbitrary frames, MTUs and delivery
// orders with duplicates, traced and untraced, unwrapping gives back
// the frame byte for byte, and every fragment datagram's capacity ends
// where its bytes do, so an append to one cannot write into the next
// one carved from the same buffer.
func TestQuickWrapUnwrapIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		frame := randBytes(r, 4096)
		var blob []byte
		if r.Intn(2) == 0 {
			blob = randBytes(r, 64)
		}
		overhead := 1
		if len(blob) > 0 {
			overhead += traceLenBytes + len(blob)
		}
		e := &Enveloper{MTU: overhead + fragHeaderLen + 1 + r.Intn(512)}
		dgs, err := e.appendWrap(nil, frame, blob)
		if err != nil {
			return false
		}
		for _, d := range dgs {
			if len(dgs) > 1 && cap(d) != len(d) {
				return false
			}
		}
		u := NewUnwrapper()
		var out []byte
		for _, i := range r.Perm(len(dgs)) {
			for reps := 1 + r.Intn(2); reps > 0; reps-- {
				o, err := u.Unwrap("p", dgs[i])
				if err != nil {
					return false
				}
				if out == nil {
					out = o // a duplicate after completion starts a new message
				}
			}
		}
		return out != nil && bytes.Equal(out, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUnwrapFragmentAliasesUntilComplete: the unwrapper reads a
// fragment's header in place and keeps the datagram's own chunk bytes —
// no copy — until the message completes; the completed frame is the one
// copy a fragmented byte gets, a fresh buffer of exactly the frame's
// size that shares nothing with the datagrams.
func TestUnwrapFragmentAliasesUntilComplete(t *testing.T) {
	frame := bytes.Repeat([]byte("fragmented payload "), 40)
	datagrams, err := (&Enveloper{MTU: 128}).Wrap(frame)
	if err != nil || len(datagrams) < 3 {
		t.Fatalf("%d datagrams, %v", len(datagrams), err)
	}
	u := NewUnwrapper()
	last := len(datagrams) - 1
	for i, d := range datagrams[:last] {
		if out, err := u.Unwrap("peer", d); err != nil || out != nil {
			t.Fatalf("fragment %d: %v, %v", i, out, err)
		}
	}
	// Pending chunks are the datagrams' bytes, not copies of them.
	var msgID uint64
	for id := range u.peers["peer"].pending {
		msgID = id
	}
	for i, d := range datagrams[:last] {
		c := u.peers["peer"].pending[msgID].chunks[i]
		if c.index != uint16(i) || len(c.data) == 0 || &c.data[0] != &d[1+fragHeaderLen] {
			t.Fatalf("pending chunk %d is not its datagram's bytes", i)
		}
	}
	if allocs := testing.AllocsPerRun(1, func() { u.Unwrap("peer", datagrams[0]) }); allocs != 0 {
		t.Errorf("a duplicate fragment allocated %.0f times", allocs)
	}

	got, err := u.Unwrap("peer", datagrams[last])
	if err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("reassembled %d bytes, %v", len(got), err)
	}
	if cap(got) != len(frame) {
		t.Errorf("reassembled frame has capacity %d for %d bytes", cap(got), len(frame))
	}
	for _, d := range datagrams {
		for i := range d {
			d[i] = 0xEE
		}
	}
	if !bytes.Equal(got, frame) {
		t.Error("completed frame still shares memory with its datagrams")
	}
	if len(u.peers["peer"].pending) != 0 {
		t.Error("completed message still pending")
	}
}
