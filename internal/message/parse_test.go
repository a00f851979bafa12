package message

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"adaptiveqos/internal/selector"
)

// wireSamples are the frames the session actually carries, built the
// way core builds them: a chat line, a whiteboard stroke, one RTP
// packet of a progressive image under a selector, and a NACK naming
// two holes and the open tail.
func wireSamples() []*Message {
	say := binary.BigEndian.AppendUint32(nil, 11)
	say = append(say, "hello, team"...)
	stroke := []byte{1, 3, 2, 0, 0, 0, 7, 0, 2, 0, 10, 0, 20, 0, 30, 0, 40}
	rtp := append([]byte{0x80, 0xE0, 0, 5, 0, 0, 0x30, 0x39, 0xCA, 0xFE, 0xBA, 0xBE}, bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, 200)...)
	nack := binary.AppendUvarint(nil, 4)    // hole [4,5]
	nack = binary.AppendUvarint(nack, 1)    //
	nack = binary.AppendUvarint(nack, 3)    // hole [9,9]
	nack = binary.AppendUvarint(nack, 0)    //
	nack = binary.AppendUvarint(nack, 1990) // everything from 2000 on
	at := time.Unix(1_700_000_000, 987_654_321)
	return []*Message{
		{Kind: KindEvent, Sender: "wired-0", Seq: 17, Timestamp: at, Selector: "sub-t3 == true",
			Attrs: selector.Attributes{AttrApp: selector.S("chat"), AttrMedia: selector.S("text"),
				AttrSize: selector.N(11), "lamport": selector.N(42)},
			Body: say},
		{Kind: KindEvent, Sender: "wired-1", Seq: 18, Timestamp: at,
			Attrs: selector.Attributes{AttrApp: selector.S("whiteboard"), AttrMedia: selector.S("stroke"),
				"lamport": selector.N(43)},
			Body: stroke},
		{Kind: KindData, Sender: "wired-0", Seq: 19, Timestamp: at, Selector: `media == "image" and size <= 1048576`,
			Attrs: selector.Attributes{AttrApp: selector.S("imageviewer"), AttrObject: selector.S("scan-7"),
				AttrMedia: selector.S("image"), AttrLevel: selector.N(5)},
			Body: rtp},
		{Kind: KindControl, Sender: "recv-2", Seq: 3, Timestamp: at,
			Attrs: selector.Attributes{"ctrl": selector.S("history-request"), "for-sender": selector.S("wired-0")},
			Body:  nack},
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from this build's encoder")

// TestWireGolden pins the bytes on the wire.  testdata/wire.golden was
// written by the encoder as it stood before Parse/View existed; every
// frame and every datagram (whole at the default MTU, fragmented at
// 256) must still come out byte for byte the same, and must decode
// back to the message it was made from.
func TestWireGolden(t *testing.T) {
	var got strings.Builder
	for i, m := range wireSamples() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "frame %d %s\n", i, hex.EncodeToString(frame))
		for _, mtu := range []int{0, 256} {
			datagrams, err := (&Enveloper{MTU: mtu}).WrapMessage(m)
			if err != nil {
				t.Fatal(err)
			}
			for j, d := range datagrams {
				fmt.Fprintf(&got, "datagram %d mtu=%d %d/%d %s\n", i, mtu, j, len(datagrams), hex.EncodeToString(d))
			}
		}
		back, err := Decode(frame)
		if err != nil || !sameMessage(back, m) {
			t.Errorf("sample %d does not survive the codec: %v, %v", i, back, err)
		}
	}
	const path = "testdata/wire.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire bytes moved at line %d of %s:\n got %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("wire bytes moved: %d lines, golden has %d", len(gl), len(wl))
	}
}

// sameMessage reports whether two messages agree in every public
// field and every attribute, whichever form either holds them in, the
// body down to nil against empty and with NaN equal to itself.
func sameMessage(a, b *Message) bool {
	if a.Kind != b.Kind || a.Sender != b.Sender || a.Seq != b.Seq || a.Selector != b.Selector ||
		a.Timestamp.UnixNano() != b.Timestamp.UnixNano() || a.NumAttrs() != b.NumAttrs() ||
		(a.Body == nil) != (b.Body == nil) || !bytes.Equal(a.Body, b.Body) {
		return false
	}
	same := true
	a.EachAttr(func(name string, v selector.Value) {
		if w, ok := b.Attr(name); !ok || !v.Equal(w) {
			same = false
		}
	})
	return same
}

// attrMap copies a message's attributes, in either form, into a map.
func attrMap(m *Message) selector.Attributes {
	attrs := make(selector.Attributes, m.NumAttrs())
	m.EachAttr(func(name string, v selector.Value) { attrs[name] = v })
	return attrs
}

var codecSentinels = []error{ErrBadMagic, ErrTruncated, ErrChecksum, ErrBadKind, ErrTooLarge, ErrBadAttr, ErrTrailing, ErrBadSelector}

// sentinel names the codec error err wraps.
func sentinel(err error) error {
	for _, s := range codecSentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// rawFrame assembles an event frame from s, seq 1, around an attribute
// section and a tail (the body length is 0, so a tail is trailing
// bytes) written by hand, with a checksum that holds — what a peer
// crafting a malformed frame sends.
func rawFrame(nattrs int, attrs, tail []byte) []byte {
	frame := append([]byte(nil), magic[:]...)
	frame = append(frame, byte(KindEvent), 0, 0, 0, 1)
	frame = append(frame, make([]byte, 8)...) // timestamp
	frame = appendString(frame, "s")
	frame = appendString(frame, "")
	frame = binary.BigEndian.AppendUint16(frame, uint16(nattrs))
	frame = append(frame, attrs...)
	frame = append(frame, 0, 0, 0, 0) // body length
	frame = append(frame, tail...)
	return binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
}

// repeatedAttr is two attribute entries under one name: app = "chat",
// then app = true.
var repeatedAttr = []byte("\x00\x03app\x01\x00\x04chat" + "\x00\x03app\x03\x01")

// TestRepeatedAttributeLastWins: the wire format can say a name twice;
// the materialised message takes the later entry as the attribute.
func TestRepeatedAttributeLastWins(t *testing.T) {
	v, err := Parse(rawFrame(2, repeatedAttr, nil))
	if err != nil {
		t.Fatal(err)
	}
	if m := v.Message(nil); m.NumAttrs() != 1 || !attrMap(m)[AttrApp].Equal(selector.B(true)) {
		t.Errorf("message attributes %v, want app = true only", attrMap(m))
	}
}

// TestMessageIntoReuse: random frames of 0–12 attributes, some with a
// name repeated, are materialised one after another into one message,
// and each time it is the message View.Message makes of the same frame
// — nothing of the frame before shows through, an attribute only that
// frame had included.
func TestMessageIntoReuse(t *testing.T) {
	selectors := []string{"", "true", `media == "image"`, `size <= 1048576 and exists(cap.display)`}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var lent Message
		in := new(Interner)
		var prev []Attr
		for step := 0; step < 20; step++ {
			var frame []byte
			if r.Intn(8) == 0 {
				frame = rawFrame(2, repeatedAttr, nil)
			} else {
				m := &Message{
					Kind: Kind(1 + r.Intn(4)), Sender: randStr(r, 8), Seq: r.Uint32(),
					Timestamp: time.Unix(0, r.Int63()), Selector: selectors[r.Intn(len(selectors))],
					Attrs: make(selector.Attributes), Body: randBytes(r, 40),
				}
				for n := r.Intn(13); len(m.Attrs) < n; {
					name := string(rune('a' + r.Intn(16)))
					switch r.Intn(3) {
					case 0:
						m.Attrs[name] = selector.S(randStr(r, 40))
					case 1:
						m.Attrs[name] = selector.N(float64(r.Intn(100)))
					default:
						m.Attrs[name] = selector.B(r.Intn(2) == 0)
					}
				}
				frame = mustEncode(t, m)
			}
			v, err := Parse(frame)
			if err != nil {
				t.Fatal(err)
			}
			v.MessageInto(&lent, in)
			fresh := v.Message(nil)
			if !sameReceived(&lent, fresh) {
				t.Logf("seed %d step %d: materialised into a used message\n %v\nfresh\n %v", seed, step, &lent, fresh)
				return false
			}
			for _, a := range prev {
				if _, was := fresh.Attr(a.Name); !was {
					if got, ok := lent.Attr(a.Name); ok {
						t.Logf("seed %d step %d: %s = %v survives from the previous frame", seed, step, a.Name, got)
						return false
					}
				}
			}
			prev = attrList(fresh)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse holds the split codec to the one-pass decoder it replaced
// (referenceDecode): for any bytes, Parse accepts exactly when the
// reference does and fails with the same sentinel; the message a view
// materialises — with and without an interner, the interner carried
// across inputs so that stale entries would show — equals the
// reference's, and so does the view materialised into a message that
// held another frame; the view answers kind, sender, seq and selector matches
// as the reference message does; and a frame in
// canonical form re-encodes to itself.
func FuzzParse(f *testing.F) {
	for _, m := range wireSamples() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	valid, _ := Encode(wireSamples()[0])
	badSel := *wireSamples()[0]
	badSel.Selector = "media == "
	frame, _ := Encode(&badSel)
	f.Add(frame)
	f.Add(valid[:len(valid)/2])                     // truncated
	f.Add(append(append([]byte(nil), valid...), 0)) // a byte after the checksum
	f.Add(rawFrame(0, nil, []byte{0}))              // a byte after the body
	f.Add(rawFrame(MaxAttrs+1, nil, nil))           // one attribute too many, none of them there
	f.Add(rawFrame(2, repeatedAttr, nil))

	f.Fuzz(func(t *testing.T, frame []byte) {
		checkParse(t, frame)
		if len(frame) >= 4 {
			// Nearly every mutation breaks the checksum and is turned
			// away at the door; mend it so the parser behind is reached.
			mended := append([]byte(nil), frame...)
			fixCRC(mended)
			checkParse(t, mended)
		}
	})
}

// heldView is an eight-attribute frame, what a lent message held before
// the frame under test.
var heldView = func() View {
	m := &Message{Kind: KindEvent, Sender: "held", Attrs: selector.Attributes{}}
	for _, name := range []string{AttrApp, AttrLevel, AttrMedia, AttrObject, AttrSize, "ctrl", "lamport", "zz"} {
		m.Attrs[name] = selector.S("held-" + name)
	}
	frame, err := Encode(m)
	if err != nil {
		panic(err)
	}
	v, err := Parse(frame)
	if err != nil {
		panic(err)
	}
	return v
}()

// sameReceived reports whether two received messages agree in every
// public field and in their attributes, visited in the same order.
func sameReceived(a, b *Message) bool {
	return sameMessage(a, b) && slices.EqualFunc(attrList(a), attrList(b), func(x, y Attr) bool {
		return x.Name == y.Name && x.Value.Equal(y.Value)
	})
}

// attrList lists a message's attributes in EachAttr's order.
func attrList(m *Message) (out []Attr) {
	m.EachAttr(func(name string, v selector.Value) { out = append(out, Attr{name, v}) })
	return out
}

var (
	fuzzProfiles = []selector.Attributes{
		nil,
		{"sub-t3": selector.B(true)},
		{"media": selector.S("image"), "size": selector.N(4096)},
		{"media": selector.S("text"), "sub-t3": selector.B(false)},
	}
	fuzzInterner = new(Interner)
)

// checkParse is FuzzParse's property, for one input.
func checkParse(t *testing.T, frame []byte) {
	ref, refErr := referenceDecode(frame)
	v, err := Parse(frame)
	if sentinel(err) != sentinel(refErr) {
		t.Fatalf("Parse: %v, reference: %v", err, refErr)
	}
	if err != nil {
		return
	}
	if v.Kind() != ref.Kind || v.Seq() != ref.Seq || string(v.Sender()) != ref.Sender {
		t.Errorf("view reads %v %q/%d, reference %v %q/%d", v.Kind(), v.Sender(), v.Seq(), ref.Kind, ref.Sender, ref.Seq)
	}
	for _, in := range []*Interner{nil, fuzzInterner} {
		m := v.Message(in)
		if !sameMessage(m, ref) {
			t.Fatalf("materialised (interner %v)\n %v\nreference\n %v", in != nil, m, ref)
		}
		if !within(m.Body, frame) || cap(m.Body) != len(m.Body) {
			t.Fatalf("materialised body (len %d, cap %d) is not a clipped slice of the input frame", len(m.Body), cap(m.Body))
		}
		checkAttrs(t, m, ref.Attrs)
	}
	for _, p := range append(fuzzProfiles[:len(fuzzProfiles):len(fuzzProfiles)], ref.Attrs) {
		if got, want := v.Matches(p), ref.MatchProfile(p); got != want {
			t.Errorf("view matches %v = %v, reference %v", p, got, want)
		}
	}
	m := v.Message(nil)
	// Lent: materialised into a message that held an eight-attribute
	// frame, it is the same message, and none of that frame's
	// attributes survive.
	var lent Message
	heldView.MessageInto(&lent, nil)
	v.MessageInto(&lent, fuzzInterner)
	if !sameReceived(&lent, m) {
		t.Fatalf("materialised into a used message\n %v\nfresh\n %v", &lent, m)
	}
	checkAttrs(t, &lent, ref.Attrs)
	heldView.Message(nil).EachAttr(func(name string, _ selector.Value) {
		if _, ok := lent.Attr(name); ok != (ref.Attrs[name].Kind() != selector.KindInvalid) {
			t.Fatalf("Attr(%q) of the previous frame reports present = %v, reference disagrees", name, ok)
		}
	})
	if sel, err := m.CompiledSelector(); err != nil || (sel == nil) != (m.Selector == "") {
		t.Errorf("decoded message's compiled selector: %v, %v for %q", sel, err, m.Selector)
	}
	// Both re-encode to the same bytes; for a frame that already was
	// the reference's encoding of itself — a canonical one — those are
	// the frame's.
	refEnc, refEncErr := Encode(ref)
	enc, encErr := Encode(m)
	if (encErr == nil) != (refEncErr == nil) || !bytes.Equal(enc, refEnc) {
		t.Fatalf("re-encoding differs from the reference's (%v, %v)", encErr, refEncErr)
	}
	if again, err := Decode(enc); encErr == nil && (err != nil || !sameMessage(again, ref)) {
		t.Fatalf("re-encoded frame decodes to %v, %v", again, err)
	}
}

// checkAttrs holds a received message's attributes to the reference
// decoder's map: the message keeps no map of its own, EachAttr visits
// names strictly increasing, and NumAttrs, Attr and EachAttr each agree
// with the map, for names present and absent.
func checkAttrs(t *testing.T, m *Message, want selector.Attributes) {
	t.Helper()
	if m.Attrs != nil {
		t.Fatalf("a received message holds an attribute map: %v", m.Attrs)
	}
	if m.NumAttrs() != len(want) {
		t.Fatalf("NumAttrs = %d, reference has %d attributes", m.NumAttrs(), len(want))
	}
	seen, prev := 0, ""
	m.EachAttr(func(name string, v selector.Value) {
		if seen > 0 && name <= prev {
			t.Fatalf("EachAttr visits %q after %q", name, prev)
		}
		if w, ok := want[name]; !ok || !v.Equal(w) {
			t.Fatalf("EachAttr: %s = %v, reference %v (present %v)", name, v, w, ok)
		}
		seen, prev = seen+1, name
	})
	if seen != len(want) {
		t.Fatalf("EachAttr visited %d attributes, reference has %d", seen, len(want))
	}
	for name, w := range want {
		if v, ok := m.Attr(name); !ok || !v.Equal(w) {
			t.Fatalf("Attr(%q) = %v, %v; reference %v", name, v, ok, w)
		}
		for _, near := range []string{name + "\x00", name[:len(name)/2]} {
			if _, ok := m.Attr(near); ok != (want[near].Kind() != selector.KindInvalid) {
				t.Fatalf("Attr(%q) reports present = %v, reference disagrees", near, ok)
			}
		}
	}
}

// TestParseSeedsAreCanonical: what Encode writes is the canonical form,
// so every sample frame must come back from Decode+Encode byte for byte.
func TestParseSeedsAreCanonical(t *testing.T) {
	for i, m := range wireSamples() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := Encode(back); err != nil || !bytes.Equal(again, frame) {
			t.Errorf("sample %d: re-encoding moved the bytes (%v)", i, err)
		}
	}
}

// TestMessageBodyAliasesFrame: the view reads the frame in place, and
// of the message made from it the body — and only the body — is still
// the frame's bytes, clipped so that appending cannot write into the
// frame.  Sender, attribute names and string values are copies.  An
// empty body is nil, aliasing nothing.
func TestMessageBodyAliasesFrame(t *testing.T) {
	frame, err := Encode(wireSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	v, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	in := new(Interner)
	m := v.Message(in)
	want := *m
	want.Attrs, want.Body = attrMap(m), bytes.Clone(m.Body)
	if !within(m.Body, frame) || cap(m.Body) != len(m.Body) {
		t.Fatalf("body (len %d, cap %d) is not a clipped slice of the frame", len(m.Body), cap(m.Body))
	}
	pristine := bytes.Clone(frame)
	if grown := append(m.Body, 'x'); within(grown, frame) || !bytes.Equal(frame, pristine) {
		t.Error("append to a delivered body wrote into the frame")
	}

	for i := range frame {
		frame[i] = 0xEE
	}
	if m.Body[0] != 0xEE {
		t.Error("body did not alias the frame")
	}
	m.Body = want.Body // everything but the body must have survived the scribble
	if !sameMessage(m, &want) || m.Sender != "wired-0" || attrMap(m)[AttrApp].Str() != "chat" {
		t.Errorf("message changed with the frame it was made from: %v", m)
	}
	if again := in.String([]byte("wired-0")); again != "wired-0" {
		t.Errorf("interned string changed with the frame: %q", again)
	}
	if string(v.Sender()) == "wired-0" {
		t.Error("view did not alias the frame")
	}

	empty, err := Decode(mustEncode(t, &Message{Kind: KindControl, Sender: "s"}))
	if err != nil || empty.Body != nil {
		t.Errorf("empty body decoded as %#v (%v), want nil", empty.Body, err)
	}
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// within reports whether every byte of b lies inside outer's backing
// array (an empty b lies anywhere).
func within(b, outer []byte) bool {
	if len(b) == 0 {
		return true
	}
	if len(outer) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(outer)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(outer))
}

// TestDecodedMessageKeepsItsSelector: a received message matches with
// the selector Parse resolved — until its Selector field is changed,
// after which the new text is what counts.
func TestDecodedMessageKeepsItsSelector(t *testing.T) {
	frame, err := Encode(wireSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	before := selector.DefaultCache().Stats()
	sel, err := m.CompiledSelector()
	if err != nil || sel == nil || sel.Source() != m.Selector {
		t.Fatalf("CompiledSelector = %v, %v", sel, err)
	}
	if !m.MatchProfile(selector.Attributes{"sub-t3": selector.B(true)}) || m.MatchProfile(nil) {
		t.Error("decoded message does not match as its selector says")
	}
	if after := selector.DefaultCache().Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("matching a decoded message went back to the cache: %+v → %+v", before, after)
	}
	m.Selector = "sub-t4 == true"
	if m.MatchProfile(selector.Attributes{"sub-t3": selector.B(true)}) || !m.MatchProfile(selector.Attributes{"sub-t4": selector.B(true)}) {
		t.Error("a rewritten Selector must be what the message matches with")
	}
}

// TestInternerStaysFixed: the table is an array, so nothing a peer
// sends can grow it; a long run of names never seen before must leave
// every lookup correct, the well-known names findable again, and
// anything over the length cap outside the table.
func TestInternerStaysFixed(t *testing.T) {
	var in Interner
	for i := 0; i < 100_000; i++ {
		name := fmt.Sprintf("sender-%d", i)
		if got := in.String([]byte(name)); got != name {
			t.Fatalf("interned %q as %q", name, got)
		}
	}
	held := 0
	for _, set := range in.sets {
		for _, s := range set {
			if s != "" {
				held++
			}
			if len(s) > maxInternLen {
				t.Fatalf("table holds %d-byte %q, cap %d", len(s), s, maxInternLen)
			}
		}
	}
	if held != internSets*internWays {
		t.Errorf("%d of %d entries in use after 100k distinct names", held, internSets*internWays)
	}
	long := strings.Repeat("x", maxInternLen+1)
	if in.String([]byte(long)) != long || in.String(nil) != "" {
		t.Error("over-long or empty input mangled")
	}
	var none *Interner
	if none.String([]byte("app")) != "app" {
		t.Error("nil interner must still convert")
	}
	// Frames decoded through the churned table still come out right.
	for i, m := range wireSamples() {
		frame, _ := Encode(m)
		v, err := Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Message(&in); !sameMessage(got, m) {
			t.Errorf("sample %d through a churned interner: %v", i, got)
		}
	}
}
