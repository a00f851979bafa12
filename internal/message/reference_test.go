package message

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"adaptiveqos/internal/selector"
)

// referenceDecode is Decode as it was before the codec was split into
// Parse and View.Message: one pass that allocates the message as it
// goes.  It is kept, unchanged but for its names, as the oracle
// FuzzParse holds the split codec to — same frames accepted, same
// errors, same messages.
func referenceDecode(frame []byte) (*Message, error) {
	const minLen = 4 + 1 + 4 + 8 + 2 + 2 + 2 + 4 + 4
	if len(frame) < minLen {
		return nil, ErrTruncated
	}
	payload, sum := frame[:len(frame)-4], binary.BigEndian.Uint32(frame[len(frame)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrChecksum
	}
	d := refDecoder{buf: payload}

	var mg [4]byte
	if err := d.bytes(mg[:]); err != nil {
		return nil, err
	}
	if mg != magic {
		return nil, ErrBadMagic
	}
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	m := &Message{Kind: Kind(kind)}
	if !m.Kind.valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	if m.Seq, err = d.u32(); err != nil {
		return nil, err
	}
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	m.Timestamp = time.Unix(0, int64(ts))
	if m.Sender, err = d.str(); err != nil {
		return nil, err
	}
	if m.Selector, err = d.str(); err != nil {
		return nil, err
	}
	// Reject uncompilable selectors at decode time: a corrupt selector
	// off the wire is a malformed frame, not a message every receiver
	// should carry to the dispatch layer and silently drop there.  The
	// selector cache (including its negative entries) makes this check a
	// map lookup on all but the first sighting.
	if m.Selector != "" {
		if _, serr := selector.CompileCached(m.Selector); serr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSelector, serr)
		}
	}

	nattrs, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(nattrs) > MaxAttrs {
		return nil, ErrTooLarge
	}
	m.Attrs = make(selector.Attributes, nattrs)
	for i := 0; i < int(nattrs); i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		k, err := d.u8()
		if err != nil {
			return nil, err
		}
		switch selector.Kind(k) {
		case selector.KindString:
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = selector.S(s)
		case selector.KindNumber:
			bits, err := d.u64()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = selector.N(math.Float64frombits(bits))
		case selector.KindBool:
			b, err := d.u8()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = selector.B(b != 0)
		default:
			return nil, fmt.Errorf("%w: attribute %q kind %d", ErrBadAttr, name, k)
		}
	}

	bodyLen, err := d.u32()
	if err != nil {
		return nil, err
	}
	if bodyLen > MaxBodyLen {
		return nil, ErrTooLarge
	}
	if int(bodyLen) > len(d.buf)-d.off {
		return nil, ErrTruncated
	}
	m.Body = append([]byte(nil), d.buf[d.off:d.off+int(bodyLen)]...)
	d.off += int(bodyLen)
	if d.off != len(d.buf) {
		return nil, ErrTrailing
	}
	return m, nil
}

type refDecoder struct {
	buf []byte
	off int
}

func (d *refDecoder) need(n int) error {
	if len(d.buf)-d.off < n {
		return ErrTruncated
	}
	return nil
}

func (d *refDecoder) bytes(dst []byte) error {
	if err := d.need(len(dst)); err != nil {
		return err
	}
	copy(dst, d.buf[d.off:])
	d.off += len(dst)
	return nil
}

func (d *refDecoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *refDecoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *refDecoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *refDecoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *refDecoder) str() (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}
