package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"adaptiveqos/internal/selector"
)

// Wire format (all multi-byte integers big-endian):
//
//	magic     [4]byte  "AQM1"
//	kind      uint8
//	seq       uint32
//	timestamp int64    UnixNano
//	sender    string   (uint16 length + bytes)
//	selector  string   (uint16 length + bytes)
//	nattrs    uint16
//	attrs     nattrs × { name string, kind uint8, payload }
//	            payload: string → uint16 len + bytes
//	                     number → float64 bits
//	                     bool   → uint8
//	bodyLen   uint32
//	body      bodyLen bytes
//	crc       uint32   IEEE CRC-32 of everything before it
var magic = [4]byte{'A', 'Q', 'M', '1'}

// Codec limits; exceeding them is an encoding error, and decoders
// reject frames that claim larger sizes so a corrupt length field
// cannot drive huge allocations.
const (
	MaxStringLen = 1<<16 - 1
	MaxAttrs     = 1 << 12
	MaxBodyLen   = 1 << 26 // 64 MiB
)

// Codec errors.
var (
	ErrBadMagic    = errors.New("message: bad magic")
	ErrTruncated   = errors.New("message: truncated frame")
	ErrChecksum    = errors.New("message: checksum mismatch")
	ErrBadKind     = errors.New("message: unknown message kind")
	ErrTooLarge    = errors.New("message: field exceeds codec limit")
	ErrBadAttr     = errors.New("message: malformed attribute")
	ErrTrailing    = errors.New("message: trailing bytes after frame")
	ErrBadSelector = errors.New("message: uncompilable selector")
)

// Encode serializes the message to a self-delimiting binary frame.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, encodedSizeHint(m)), m)
}

// encodedSizeHint estimates the frame size so a single allocation (or a
// pooled buffer of typical capacity) holds the whole encoding.
func encodedSizeHint(m *Message) int {
	return 64 + len(m.Sender) + len(m.Selector) + len(m.Body) + 32*m.NumAttrs()
}

// AppendEncode serializes the message, appending the frame to dst and
// returning the extended slice.  Callers reusing buffers across
// messages (the send and relay hot paths) avoid a per-message
// allocation; see Enveloper.WrapMessage.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if !m.Kind.valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, m.Kind)
	}
	if len(m.Sender) > MaxStringLen || len(m.Selector) > MaxStringLen {
		return nil, ErrTooLarge
	}
	nattrs := m.NumAttrs()
	if nattrs > MaxAttrs {
		return nil, ErrTooLarge
	}
	if len(m.Body) > MaxBodyLen {
		return nil, ErrTooLarge
	}

	start := len(dst)
	buf := dst
	buf = append(buf, magic[:]...)
	buf = append(buf, byte(m.Kind))
	buf = binary.BigEndian.AppendUint32(buf, m.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Timestamp.UnixNano()))
	buf = appendString(buf, m.Sender)
	buf = appendString(buf, m.Selector)

	buf = binary.BigEndian.AppendUint16(buf, uint16(nattrs))
	var err error
	if m.Attrs == nil {
		// The slice form, a received message's or SetAttrs', is
		// already in name order.
		for _, a := range m.attrs {
			if buf, err = appendAttr(buf, a.Name, a.Value); err != nil {
				return nil, err
			}
		}
	} else {
		// Names go out sorted, so a message has one encoding.  The usual
		// handful is sorted in a stack array; only a message with more
		// attributes than that pays for Names' slice.
		var few [16]string
		names := few[:0]
		if len(m.Attrs) > len(few) {
			names = m.Attrs.Names()
		} else {
			for name := range m.Attrs {
				names = append(names, name)
			}
			slices.Sort(names)
		}
		for _, name := range names {
			if buf, err = appendAttr(buf, name, m.Attrs[name]); err != nil {
				return nil, err
			}
		}
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Body)))
	buf = append(buf, m.Body...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	return buf, nil
}

// Decode parses a frame produced by Encode into a message whose Body
// aliases the frame's body bytes (see View.Message) and which shares
// nothing else with it: a caller that goes on to overwrite frame must
// copy the body out first.  The input must contain exactly one frame.
// It is Parse followed by View.Message: receive paths that can reject
// a frame before they need the message call those two themselves.
func Decode(frame []byte) (*Message, error) {
	v, err := Parse(frame)
	if err != nil {
		return nil, err
	}
	return v.Message(nil), nil
}

// appendAttr appends one attribute entry.
func appendAttr(buf []byte, name string, v selector.Value) ([]byte, error) {
	if len(name) > MaxStringLen {
		return nil, ErrTooLarge
	}
	buf = appendString(buf, name)
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case selector.KindString:
		if len(v.Str()) > MaxStringLen {
			return nil, ErrTooLarge
		}
		buf = appendString(buf, v.Str())
	case selector.KindNumber:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Num()))
	case selector.KindBool:
		if v.Bool() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	default:
		return nil, fmt.Errorf("%w: attribute %q has invalid value", ErrBadAttr, name)
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// decoder is a bounds-checked big-endian reader over a byte slice.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) need(n int) error {
	if len(d.buf)-d.off < n {
		return ErrTruncated
	}
	return nil
}

// take returns the next n bytes, still in the buffer.
func (d *decoder) take(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// str reads a length-prefixed string, returned as the buffer's bytes.
func (d *decoder) str() ([]byte, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	return d.take(int(n))
}

// attr reads one attribute entry: its name, its kind and the bytes of
// its value (a string's text, a number's eight, a bool's one), all
// still in the buffer.
func (d *decoder) attr() (name []byte, kind selector.Kind, raw []byte, err error) {
	if name, err = d.str(); err != nil {
		return nil, 0, nil, err
	}
	k, err := d.u8()
	if err != nil {
		return nil, 0, nil, err
	}
	switch kind = selector.Kind(k); kind {
	case selector.KindString:
		raw, err = d.str()
	case selector.KindNumber:
		raw, err = d.take(8)
	case selector.KindBool:
		raw, err = d.take(1)
	default:
		err = fmt.Errorf("%w: attribute %q kind %d", ErrBadAttr, name, k)
	}
	return name, kind, raw, err
}
