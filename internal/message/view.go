package message

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"time"

	"adaptiveqos/internal/selector"
)

// View is a frame that has passed every check the codec makes, read in
// place: its fields are the frame's own bytes and nothing has been
// allocated for it.  On the multicast session every endpoint receives
// every frame and most reject it (own echo, duplicate, selector
// mismatch), so a receive path asks the view what it needs to decide —
// kind, sender, sequence number, whether the selector admits a profile —
// and calls Message only for a frame it keeps.
//
// A View aliases the frame it was parsed from and stays valid for as
// long as those bytes are not modified; transport.Packet.Data never is,
// so a view of a received datagram may be retained.
type View struct {
	kind   Kind
	seq    uint32
	ts     int64
	sender []byte
	sel    *selector.Selector // nil: the empty, match-all selector
	nattrs int
	attrs  []byte // the attribute entries, bounds-checked by Parse
	body   []byte
}

// Parse validates a frame produced by Encode — length, checksum, magic,
// kind, every string, attribute and body bound, the codec limits, no
// trailing bytes, a selector that compiles — and returns a view of it.
// The input must contain exactly one frame.
//
// The selector is resolved once, through the process-global cache keyed
// by the frame's own bytes; with the selector cached, Parse allocates
// nothing.
func Parse(frame []byte) (View, error) {
	const minLen = 4 + 1 + 4 + 8 + 2 + 2 + 2 + 4 + 4
	if len(frame) < minLen {
		return View{}, ErrTruncated
	}
	payload, sum := frame[:len(frame)-4], binary.BigEndian.Uint32(frame[len(frame)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return View{}, ErrChecksum
	}
	d := decoder{buf: payload}

	mg, err := d.take(len(magic))
	if err != nil {
		return View{}, err
	}
	if [4]byte(mg) != magic {
		return View{}, ErrBadMagic
	}
	kind, err := d.u8()
	if err != nil {
		return View{}, err
	}
	v := View{kind: Kind(kind)}
	if !v.kind.valid() {
		return View{}, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	if v.seq, err = d.u32(); err != nil {
		return View{}, err
	}
	ts, err := d.u64()
	if err != nil {
		return View{}, err
	}
	v.ts = int64(ts)
	if v.sender, err = d.str(); err != nil {
		return View{}, err
	}
	src, err := d.str()
	if err != nil {
		return View{}, err
	}
	// Reject uncompilable selectors here: a corrupt selector off the
	// wire is a malformed frame, not a message every receiver should
	// carry to the dispatch layer and silently drop there.  The cache
	// (including its negative entries) makes this a map lookup on all
	// but the first sighting, and what it returns is what the view, and
	// the message made from it, match with.
	if len(src) > 0 {
		var serr error
		if v.sel, serr = selector.DefaultCache().CompileBytes(src); serr != nil {
			return View{}, fmt.Errorf("%w: %v", ErrBadSelector, serr)
		}
	}

	nattrs, err := d.u16()
	if err != nil {
		return View{}, err
	}
	if int(nattrs) > MaxAttrs {
		return View{}, ErrTooLarge
	}
	v.nattrs = int(nattrs)
	start := d.off
	for i := 0; i < v.nattrs; i++ {
		if _, _, _, err := d.attr(); err != nil {
			return View{}, err
		}
	}
	v.attrs = d.buf[start:d.off]

	bodyLen, err := d.u32()
	if err != nil {
		return View{}, err
	}
	if bodyLen > MaxBodyLen {
		return View{}, ErrTooLarge
	}
	if v.body, err = d.take(int(bodyLen)); err != nil {
		return View{}, err
	}
	if d.off != len(d.buf) {
		return View{}, ErrTrailing
	}
	return v, nil
}

// Kind returns the message kind.
func (v View) Kind() Kind { return v.kind }

// Seq returns the sender-scoped sequence number.
func (v View) Seq() uint32 { return v.seq }

// Sender returns the originating client ID as the frame's bytes.
func (v View) Sender() []byte { return v.sender }

// Matches reports whether the frame's selector admits the given
// flattened profile attributes; the empty selector admits everything.
func (v View) Matches(flat selector.Attributes) bool {
	return v.sel == nil || v.sel.Matches(flat)
}

// Message materialises the view as a new message whose Body is the
// frame's own body bytes and which shares nothing else with the frame.
// The body is not copied: it stays valid, and may be retained, for as
// long as the frame is not modified (transport.Packet.Data never is),
// and it is read-only — its capacity is clipped to its length, so
// appending to it reallocates instead of writing into a frame other
// receivers hold.  An empty body is nil.  Sender, attribute names and
// short string values come out of in (nil: each is a fresh string); the
// selector source is the compiled selector's own copy, and the message
// remembers that selector, so matching it later costs no cache lookup.
//
// The attributes are kept in name order inside the message (Attrs stays
// nil), and a message with at most eight of them is one allocation.
// Encode writes names strictly increasing and such entries are kept as
// they are read; any other frame's are sorted, and of a name the frame
// repeats the later entry wins.
func (v View) Message(in *Interner) *Message {
	m, attrs := newMessage(v.nattrs)
	v.fill(m, attrs, in)
	return m
}

// MessageInto materialises the view into m, as Message would into a
// new one, overwriting every field of m.  It is how a receive loop
// lends one message to each frame it admits in turn: m's attribute
// storage is reused when it has room for the frame's (a fresh one
// holds at least eight), so in the steady state it allocates nothing.
// What m held before is overwritten, its attributes included; the
// strings and the body it pointed to are not touched, so whoever kept
// those may go on using them.
func (v View) MessageInto(m *Message, in *Interner) {
	attrs := m.attrs[:0]
	if cap(attrs) < v.nattrs {
		attrs = make([]Attr, 0, max(v.nattrs, 8))
	}
	v.fill(m, attrs, in)
}

// fill writes the view into m, appending its attributes to attrs (empty,
// with room for them).
func (v View) fill(m *Message, attrs []Attr, in *Interner) {
	var body []byte
	if len(v.body) > 0 {
		body = v.body[:len(v.body):len(v.body)]
	}
	*m = Message{
		Kind:      v.kind,
		Sender:    in.String(v.sender),
		Seq:       v.seq,
		Timestamp: time.Unix(0, v.ts),
		Body:      body,
		sel:       v.sel,
	}
	if v.sel != nil {
		m.Selector = v.sel.Source()
	}
	d := decoder{buf: v.attrs}
	canonical := true
	for i := 0; i < v.nattrs; i++ {
		name, kind, raw, _ := d.attr()
		a := Attr{Name: in.String(name), Value: attrValue(kind, raw, in)}
		if n := len(attrs); n > 0 && attrs[n-1].Name >= a.Name {
			canonical = false
		}
		attrs = append(attrs, a)
	}
	if !canonical {
		attrs = lastWins(attrs)
	}
	m.attrs = attrs
}

// A received message and its attributes share one allocation when they
// fit one of these.  A Message is 128 bytes (Kind and Seq share a word)
// and an Attr 48, so they are 320 and 512 bytes: allocator size classes,
// with nothing rounded up.
type (
	message4 struct {
		m     Message
		attrs [4]Attr
	}
	message8 struct {
		m     Message
		attrs [8]Attr
	}
)

// newMessage allocates a message and room for n attributes.
func newMessage(n int) (*Message, []Attr) {
	switch {
	case n == 0:
		return new(Message), nil
	case n <= 4:
		p := new(message4)
		return &p.m, p.attrs[:0]
	case n <= 8:
		p := new(message8)
		return &p.m, p.attrs[:0]
	default:
		return new(Message), make([]Attr, 0, n)
	}
}

// lastWins sorts attribute entries by name, in place, keeping of a
// repeated name the entry that came last.
func lastWins(attrs []Attr) []Attr {
	slices.SortStableFunc(attrs, func(a, b Attr) int { return strings.Compare(a.Name, b.Name) })
	out := attrs[:0]
	for i, a := range attrs {
		if i+1 < len(attrs) && attrs[i+1].Name == a.Name {
			continue
		}
		out = append(out, a)
	}
	return out
}

// attrValue builds the value of an attribute entry decoder.attr read.
func attrValue(kind selector.Kind, raw []byte, in *Interner) selector.Value {
	switch kind {
	case selector.KindString:
		return selector.S(in.String(raw))
	case selector.KindNumber:
		return selector.N(math.Float64frombits(binary.BigEndian.Uint64(raw)))
	default:
		return selector.B(raw[0] != 0)
	}
}
