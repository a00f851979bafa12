package apps

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
)

// AppMedia is the app name for direct media-object delivery: the base
// station uses it to hand tiered content (text description, sketch,
// speech, or a complete image object) to clients in one event.
const AppMedia = "media"

// ShareAttrs appends to dst the attributes a shared media object
// travels with, in name order as message.SetAttrs takes them: the app
// that takes it, o's descriptive attributes and the object's name.
func ShareAttrs(dst []message.Attr, app string, o *media.Object, object string) []message.Attr {
	dst = append(dst, message.Attr{Name: message.AttrApp, Value: selector.S(app)})
	named, placed := message.Attr{Name: message.AttrObject, Value: selector.S(object)}, false
	o.EachAttr(func(name string, v selector.Value) {
		if !placed && name > named.Name {
			dst, placed = append(dst, named), true
		}
		dst = append(dst, message.Attr{Name: name, Value: v})
	})
	if !placed {
		dst = append(dst, named)
	}
	return dst
}

// EncodeMediaObject serializes a media object as an event payload:
//
//	kindLen u8 | kind | fmtLen u8 | format | descLen u16 | desc |
//	width u16 | height u16 | dataLen u32 | data [| sketchLen u16 | sketch]
//
// The sketch trailer is there only when the object carries a sketch.
func EncodeMediaObject(o *media.Object) ([]byte, error) { return AppendMediaObject(nil, o) }

// AppendMediaObject appends o's EncodeMediaObject payload to dst,
// growing it at most once, to the payload's exact size: a sender that
// keeps its buffer from one object to the next allocates nothing.
func AppendMediaObject(dst []byte, o *media.Object) ([]byte, error) {
	if len(o.Kind) > 255 || len(o.Format) > 255 || len(o.Description) > 1<<16-1 || len(o.Sketch) > 1<<16-1 {
		return dst, fmt.Errorf("%w: media object fields too long", ErrBadEvent)
	}
	n := 1 + len(o.Kind) + 1 + len(o.Format) + 2 + len(o.Description) + 2 + 2 + 4 + len(o.Data)
	if o.Sketch != "" {
		n += 2 + len(o.Sketch)
	}
	out := slices.Grow(dst, n)
	out = append(out, byte(len(o.Kind)))
	out = append(out, o.Kind...)
	out = append(out, byte(len(o.Format)))
	out = append(out, o.Format...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(o.Description)))
	out = append(out, o.Description...)
	out = binary.BigEndian.AppendUint16(out, uint16(o.Width))
	out = binary.BigEndian.AppendUint16(out, uint16(o.Height))
	out = binary.BigEndian.AppendUint32(out, uint32(len(o.Data)))
	return appendSketch(append(out, o.Data...), o.Sketch), nil
}

// DecodeMediaObject parses an EncodeMediaObject payload.  The object's
// Data aliases payload (its strings are copies): the object is
// read-only for as long as the payload is, which for a received
// message body is for good.
func DecodeMediaObject(payload []byte) (*media.Object, error) {
	fail := func(what string) (*media.Object, error) {
		return nil, fmt.Errorf("%w: media object %s", ErrBadEvent, what)
	}
	if len(payload) < 1 {
		return fail("empty")
	}
	off := 0
	n := int(payload[off])
	off++
	if len(payload) < off+n+1 {
		return fail("kind")
	}
	kind := media.Kind(payload[off : off+n])
	off += n
	n = int(payload[off])
	off++
	if len(payload) < off+n+2 {
		return fail("format")
	}
	format := string(payload[off : off+n])
	off += n
	n = int(binary.BigEndian.Uint16(payload[off:]))
	off += 2
	if len(payload) < off+n+8 {
		return fail("description")
	}
	desc := string(payload[off : off+n])
	off += n
	w := int(binary.BigEndian.Uint16(payload[off:]))
	h := int(binary.BigEndian.Uint16(payload[off+2:]))
	dataLen := int(binary.BigEndian.Uint32(payload[off+4:]))
	off += 8
	if len(payload) < off+dataLen {
		return fail("data length")
	}
	end := off + dataLen
	n, ok := sketchTrailer(payload[end:])
	if !ok {
		return fail("sketch")
	}
	return &media.Object{
		Kind:        kind,
		Format:      format,
		Description: desc,
		Width:       w,
		Height:      h,
		Data:        payload[off:end:end],
		Sketch:      string(payload[len(payload)-n:]),
	}, nil
}

// Delivery is one received media object with its sender.
type Delivery struct {
	Sender string
	Object *media.Object
}

// MediaInbox stores media objects delivered directly (tiered content
// from a base station or peers).
type MediaInbox struct {
	mu    sync.RWMutex
	items []Delivery
	// MaxItems bounds the inbox; 0 = unlimited.
	MaxItems int
}

// NewMediaInbox returns an empty inbox.
func NewMediaInbox() *MediaInbox { return &MediaInbox{} }

// Apply ingests a media delivery event.
func (b *MediaInbox) Apply(sender string, payload []byte) error {
	obj, err := DecodeMediaObject(payload)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items = append(b.items, Delivery{Sender: sender, Object: obj})
	if b.MaxItems > 0 && len(b.items) > b.MaxItems {
		b.items = append([]Delivery(nil), b.items[len(b.items)-b.MaxItems:]...)
	}
	return nil
}

// Items returns a copy of the inbox contents.
func (b *MediaInbox) Items() []Delivery {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]Delivery(nil), b.items...)
}

// Len returns the number of stored deliveries.
func (b *MediaInbox) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.items)
}

// Latest returns the most recent delivery, if any.
func (b *MediaInbox) Latest() (Delivery, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.items) == 0 {
		return Delivery{}, false
	}
	return b.items[len(b.items)-1], true
}
