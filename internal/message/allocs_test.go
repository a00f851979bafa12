//go:build !race

package message

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"adaptiveqos/internal/selector"
)

// Allocation pins for the frame codec (DESIGN.md §7): the counts the
// end-to-end allocs_per_delivery budgets are made of, held in go test.
// Excluded under -race: the detector's instrumentation allocates.

func TestParseZeroAllocs(t *testing.T) {
	for i, m := range wireSamples() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(frame); err != nil { // first sighting compiles the selector
			t.Fatal(err)
		}
		var v View
		if n := testing.AllocsPerRun(200, func() { v, _ = Parse(frame) }); n != 0 {
			t.Errorf("sample %d: Parse allocates %g times with its selector cached, want 0", i, n)
		}
		flat := selector.Attributes{"sub-t3": selector.B(true)}
		if n := testing.AllocsPerRun(200, func() { v.Matches(flat) }); n != 0 {
			t.Errorf("sample %d: matching a view allocates %g times, want 0", i, n)
		}
	}
}

// A materialised message holds its attributes in its own allocation up
// to eight of them, and in one slice beside it above that; the body is
// the frame's and every string in it is interned.  Materialised into a
// message that already has room, it allocates nothing.  Without an
// interner the strings come back: a chat line's sender, four names and
// two values.
func TestMessageAllocs(t *testing.T) {
	for _, n := range attrCounts[:len(attrCounts)-1] { // MaxAttrs names overflow the interner
		m := &Message{Kind: KindEvent, Sender: "wired-0", Attrs: make(selector.Attributes, n)}
		for i := 0; i < n; i++ {
			m.Attrs[fmt.Sprintf("a%04d", i)] = selector.N(float64(i))
		}
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		want := 1.0
		if n > 8 {
			want = 2
		}
		in := new(Interner)
		v.Message(in)
		if got := testing.AllocsPerRun(100, func() { v.Message(in) }); got != want {
			t.Errorf("%d attributes: Message through a warm interner allocates %g times, want %g", n, got, want)
		}
		var lent Message
		v.MessageInto(&lent, in)
		if got := testing.AllocsPerRun(100, func() { v.MessageInto(&lent, in) }); got != 0 {
			t.Errorf("%d attributes: MessageInto a used message allocates %g times, want 0", n, got)
		}
	}
	frame, err := Encode(wireSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { Decode(frame) }); n > 8 {
		t.Errorf("Decode allocates %g times, want <= 8", n)
	}
}

// TestReceivedMessageSizes pins the layout View.Message allocates: the
// message, and the message with four or eight attributes, each fill an
// allocator size class exactly.
func TestReceivedMessageSizes(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"Message", unsafe.Sizeof(Message{}), 128},
		{"message4", unsafe.Sizeof(message4{}), 320},
		{"message8", unsafe.Sizeof(message8{}), 512},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.what, c.got, c.want)
		}
	}
}

// AppendEncode orders up to 16 attribute names in a stack array.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	m := wireSamples()[0]
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() { AppendEncode(buf, m) }); n != 0 {
		t.Errorf("AppendEncode into a buffer with room allocates %g times, want 0", n)
	}
	for i := 0; len(m.Attrs) < 16; i++ {
		m.Attrs[fmt.Sprintf("extra-%02d", i)] = selector.N(float64(i))
	}
	if n := testing.AllocsPerRun(200, func() { AppendEncode(buf, m) }); n != 0 {
		t.Errorf("AppendEncode of 16 attributes allocates %g times, want 0", n)
	}
}

// A two-fragment message costs one allocation at the receiver: the
// frame it completes into, none when it completes into the receiver's
// scratch.  Its reassembly state is the last message's,
// recycled, and a duplicate fragment costs nothing.  So is the state of
// a message that evicts an abandoned one: it takes the victim's.
func TestReassemblyAllocs(t *testing.T) {
	env := &Enveloper{MTU: 128}
	const runs = 200
	msgs := make([][][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for i := range msgs {
		d, err := env.Wrap(make([]byte, 200))
		if err != nil || len(d) != 2 {
			t.Fatalf("%d datagrams, %v", len(d), err)
		}
		msgs[i] = d
	}
	u := NewUnwrapper()
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		d := msgs[next]
		next++
		u.Unwrap("peer", d[0])
		if frame, _ := u.Unwrap("peer", d[1]); frame == nil {
			t.Fatal("two fragments did not complete their message")
		}
	})
	if n != 1 {
		t.Errorf("a two-fragment message allocates %g times at the receiver, want 1 (the frame)", n)
	}
	u.Unwrap("peer", msgs[0][0])
	if n := testing.AllocsPerRun(runs, func() { u.Unwrap("peer", msgs[0][0]) }); n != 0 {
		t.Errorf("a duplicate fragment allocates %g times, want 0", n)
	}

	// Into the receiver's scratch, the frame costs nothing either.
	var scratch []byte
	n = testing.AllocsPerRun(runs, func() {
		d := msgs[next%len(msgs)]
		next++
		u.UnwrapInto("peer", d[0], &scratch)
		if frame, _ := u.UnwrapInto("peer", d[1], &scratch); frame == nil {
			t.Fatal("two fragments did not complete their message")
		}
	})
	if n != 0 {
		t.Errorf("a two-fragment message read into scratch allocates %g times, want 0", n)
	}

	r := NewReassembler()
	id, chunk := uint64(0), []byte{1}
	for ; id < maxPending; id++ { // the reassembler full of first fragments
		r.Add(Fragment{MsgID: id, Count: 2, Chunk: chunk}, nil)
	}
	if n := testing.AllocsPerRun(runs, func() {
		id++ // a new message each run, evicting the oldest one's first fragment
		if _, done, err := r.Add(Fragment{MsgID: id, Count: 2, Chunk: chunk}, nil); done || err != nil {
			t.Fatalf("one fragment of two: done %v, %v", done, err)
		}
	}); n != 0 {
		t.Errorf("a message that evicts an abandoned one allocates %g times, want 0", n)
	}
}

// TestReassemblyClaimedCountBounded: reassembly state follows the
// fragments that arrived, not the count a datagram claims.  A 17-byte
// fragment claiming 65 535 siblings used to reserve room for all of
// them (≈5 MB, held until eviction); now it costs under 4 KB, and the
// 64 such messages a peer may hold pending cost under 1 MB together.
func TestReassemblyClaimedCountBounded(t *testing.T) {
	const held = maxPending
	datagrams := make([][]byte, 2*held)
	for i := range datagrams {
		f := Fragment{MsgID: uint64(i + 1), Count: MaxFragments, Chunk: []byte{0xAB}}
		datagrams[i] = f.AppendMarshal([]byte{envFragment})
	}
	u := NewUnwrapper()
	feed := func(ds [][]byte) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, d := range ds {
			if frame, err := u.Unwrap("peer", d); frame != nil || err != nil {
				t.Fatalf("one fragment of %d: frame %v, err %v", MaxFragments, frame, err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if b := feed(datagrams[:held]); b >= 1<<20 {
		t.Errorf("%d pending one-fragment messages claiming %d fragments hold %d B, want < 1 MB", held, MaxFragments, b)
	}
	// Past the bound each message evicts one: what it costs is its own.
	if b := feed(datagrams[held:]) / held; b >= 4<<10 {
		t.Errorf("a fragment claiming %d siblings allocates %d B, want < 4 KB", MaxFragments, b)
	}
}
