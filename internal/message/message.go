// Package message defines the semantic message format exchanged by the
// publisher/subscriber messaging substrate, its binary wire codec, and
// fragmentation/reassembly for high-volume payloads.
//
// Every message is a state-based multicast message: in addition to the
// body it carries a sender-specified semantic selector (a propositional
// expression over profile attributes specifying which clients are to
// receive it) and a set of descriptive attributes that receivers use to
// interpret the content under their current constraints (media type,
// encoding, size, resolution level, ...).
package message

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"adaptiveqos/internal/selector"
)

// Kind classifies messages on the wire.
type Kind uint8

// Message kinds.
const (
	// KindEvent carries an application event (chat line, whiteboard
	// stroke, image-share announcement) to be replayed at receivers.
	KindEvent Kind = iota + 1
	// KindData carries bulk content, typically one fragment of a
	// progressive image stream.
	KindData
	// KindProfile announces a client's profile (used by base stations
	// and session archival; ordinary matching never needs rosters).
	KindProfile
	// KindControl carries framework control traffic (joins, leaves,
	// power-control requests, concurrency-control grants).
	KindControl
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindData:
		return "data"
	case KindProfile:
		return "profile"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// valid reports whether k is a known kind.
func (k Kind) valid() bool { return k >= KindEvent && k <= KindControl }

// Message is a semantic message.  Selector source text travels on the
// wire; receivers compile and evaluate it against their profiles.
type Message struct {
	// Kind classifies the message.
	Kind Kind
	// Seq is a sender-scoped sequence number.
	Seq uint32
	// Sender is the originating client ID (diagnostics and unicast
	// relay bookkeeping; never used for matching).
	Sender string
	// Timestamp is the send time.
	Timestamp time.Time
	// Selector is the semantic selector source specifying receiver
	// profiles.  Empty means "all" (equivalent to "true").
	Selector string
	// Attrs describes the content itself as a map, the older sender
	// form, which only the benchmark still writes.  A sender sets the
	// name-sorted slice instead (SetAttrs), and a received message
	// (View.Message, Decode) leaves Attrs nil and holds its attributes
	// in that same slice form, so read attributes through Attr,
	// NumAttrs and EachAttr, which see either form.  Setting Attrs
	// replaces the slice.
	Attrs selector.Attributes
	// Body is the payload.  On a received message (View.Message,
	// Decode) it aliases the frame the message was parsed from and is
	// read-only: retain it freely, never write through it.  A sender
	// hands its own bytes in, and they are only read.
	Body []byte

	// sel is Selector compiled, remembered by View.Message so that a
	// received message is matched (once per candidate at a relay)
	// without going back to the selector cache.  It is used only while
	// its source still equals Selector.
	sel *selector.Selector
	// attrs are the message's attributes, strictly increasing by name:
	// a received message's, or what a sender set with SetAttrs; read
	// only while Attrs is nil.
	attrs []Attr
}

// Attr is one content attribute of a message.
type Attr struct {
	Name  string
	Value selector.Value
}

// SetAttrs sets the message's content attributes to attrs, which must
// be strictly increasing by name: the order a received message holds
// them in and the order they go out in, so encoding sorts nothing.  The
// message keeps attrs itself, not a copy, and only reads it; a sender
// may rewrite the slice for its next message once the message has been
// handed on (a dispatch.Deliverer keeps none of it), and such a message
// is not one to lend to View.MessageInto, which would write a frame's
// attributes into them.  Attrs is cleared.  SetAttrs panics on a name
// that does not sort after the one before it.
func (m *Message) SetAttrs(attrs []Attr) {
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1].Name >= attrs[i].Name {
			panic(fmt.Sprintf("message: SetAttrs: attribute %q does not sort after %q", attrs[i].Name, attrs[i-1].Name))
		}
	}
	m.Attrs, m.attrs = nil, attrs
}

// AttrsOf returns a's entries as the name-sorted slice SetAttrs takes:
// how a sender that describes content with a map, as a media object's
// attributes are, hands it to a message.
func AttrsOf(a selector.Attributes) []Attr {
	attrs := make([]Attr, 0, len(a))
	for _, name := range a.Names() {
		attrs = append(attrs, Attr{Name: name, Value: a[name]})
	}
	return attrs
}

// MatchProfile reports whether the message's selector admits the given
// flattened profile attributes.  The empty selector matches everything;
// an unparsable selector matches nothing (fail-closed: a malformed
// expression must not leak content to unintended receivers — Decode
// additionally rejects such frames up front, see ErrBadSelector).
//
// Compilation goes through the process-global selector cache, so each
// distinct selector is lexed and parsed once per process rather than
// once per delivered message; a received message already holds its
// compiled selector and skips the cache too.
func (m *Message) MatchProfile(flat selector.Attributes) bool {
	sel, err := m.CompiledSelector()
	if err != nil {
		return false
	}
	if sel == nil {
		return true
	}
	return sel.Matches(flat)
}

// CompiledSelector returns the message's selector compiled: the one
// Parse resolved for a received message, otherwise through the
// process-global cache.  A nil selector with nil error means the empty
// ("match all") selector.
func (m *Message) CompiledSelector() (*selector.Selector, error) {
	if m.Selector == "" {
		return nil, nil
	}
	if m.sel != nil && m.sel.Source() == m.Selector {
		return m.sel, nil
	}
	return selector.CompileCached(m.Selector)
}

// Attr returns the content attribute called name, from Attrs when it
// is set and otherwise from the name-sorted slice.
func (m *Message) Attr(name string) (selector.Value, bool) {
	if m.Attrs != nil {
		v, ok := m.Attrs[name]
		return v, ok
	}
	i, ok := slices.BinarySearchFunc(m.attrs, name, func(a Attr, name string) int {
		return strings.Compare(a.Name, name)
	})
	if !ok {
		return selector.Value{}, false
	}
	return m.attrs[i].Value, true
}

// NumAttrs returns how many content attributes the message has.
func (m *Message) NumAttrs() int {
	if m.Attrs != nil {
		return len(m.Attrs)
	}
	return len(m.attrs)
}

// EachAttr calls fn with every content attribute, in name order.
func (m *Message) EachAttr(fn func(name string, v selector.Value)) {
	if m.Attrs != nil {
		for _, name := range m.Attrs.Names() {
			fn(name, m.Attrs[name])
		}
		return
	}
	for _, a := range m.attrs {
		fn(a.Name, a.Value)
	}
}

// String renders a compact description for logs.
func (m *Message) String() string {
	var attrs strings.Builder
	attrs.WriteByte('{')
	m.EachAttr(func(name string, v selector.Value) {
		if attrs.Len() > 1 {
			attrs.WriteString(", ")
		}
		fmt.Fprintf(&attrs, "%s=%s", name, v)
	})
	attrs.WriteByte('}')
	return fmt.Sprintf("msg(%s from=%s seq=%d sel=%q attrs=%s body=%dB)",
		m.Kind, m.Sender, m.Seq, m.Selector, attrs.String(), len(m.Body))
}

// Well-known content attribute names shared by senders and receivers.
const (
	// AttrMedia is the media type: "text", "image", "sketch", "speech",
	// "video", "stroke", ...
	AttrMedia = "media"
	// AttrSize is the full content size in bytes.
	AttrSize = "size"
	// AttrApp is the originating application ("chat", "whiteboard",
	// "imageviewer").
	AttrApp = "app"
	// AttrObject identifies the shared object the message concerns.
	AttrObject = "object"
	// AttrLevel is the progressive refinement level of a data fragment
	// (0 = sketch/base layer).
	AttrLevel = "level"
)
