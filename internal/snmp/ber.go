package snmp

import (
	"errors"
	"fmt"
)

// BER tag bytes for the ASN.1 subset SNMP uses.
const (
	tagInteger      = 0x02
	tagOctetString  = 0x04
	tagNull         = 0x05
	tagOID          = 0x06
	tagSequence     = 0x30
	tagIPAddress    = 0x40
	tagCounter32    = 0x41
	tagGauge32      = 0x42
	tagTimeTicks    = 0x43
	tagOpaque       = 0x44
	tagCounter64    = 0x46
	tagNoSuchObject = 0x80
	tagNoSuchInst   = 0x81
	tagEndOfMibView = 0x82
	tagGetRequest   = 0xA0
	tagGetNext      = 0xA1
	tagGetResponse  = 0xA2
	tagSetRequest   = 0xA3
	tagGetBulk      = 0xA5
	tagInform       = 0xA6
	tagTrapV2       = 0xA7
)

// BER errors.
var (
	ErrBERTruncated = errors.New("snmp: truncated BER element")
	ErrBERLength    = errors.New("snmp: invalid BER length")
	ErrBERTag       = errors.New("snmp: unexpected BER tag")
	ErrBERInteger   = errors.New("snmp: invalid BER integer")
)

// The encoder writes a message in one pass into the caller's buffer:
// each element's content length is sized first (the *Len functions),
// so every header is written before its content and nothing is built
// in a buffer of its own.

// lengthLen is the size of the BER length field for n content bytes.
func lengthLen(n int) int {
	if n < 0x80 {
		return 1
	}
	k := 1
	for ; n > 0; n >>= 8 {
		k++
	}
	return k
}

// tlvLen is the size of a whole element with n content bytes.
func tlvLen(n int) int { return 1 + lengthLen(n) + n }

// appendHeader appends tag | length for n content bytes.
func appendHeader(out []byte, tag byte, n int) []byte {
	return appendLength(append(out, tag), n)
}

// appendTLV appends tag | length | content.
func appendTLV(out []byte, tag byte, content []byte) []byte {
	return append(appendHeader(out, tag, len(content)), content...)
}

// appendLength appends a BER length (short or long form).
func appendLength(out []byte, n int) []byte {
	if n < 0x80 {
		return append(out, byte(n))
	}
	k := lengthLen(n) - 1
	out = append(out, byte(0x80|k))
	for i := k - 1; i >= 0; i-- {
		out = append(out, byte(n>>(8*i)))
	}
	return out
}

// intLen is the content length of v's minimal two's-complement
// encoding.
func intLen(v int64) int {
	n := 8
	for n > 1 {
		top := byte(v >> ((n - 1) * 8))
		next := byte(v >> ((n - 2) * 8))
		if (top == 0x00 && next&0x80 == 0) || (top == 0xFF && next&0x80 != 0) {
			n--
			continue
		}
		break
	}
	return n
}

// appendInt appends a two's-complement INTEGER with the given tag.
func appendInt(out []byte, tag byte, v int64) []byte {
	n := intLen(v)
	out = append(out, tag, byte(n))
	for i := n - 1; i >= 0; i-- {
		out = append(out, byte(v>>(8*i)))
	}
	return out
}

// uintLen is the content length of an unsigned integer: its minimal
// bytes plus a leading zero if the top bit is set (BER integers are
// signed).
func uintLen(v uint64) int {
	n := 1
	for w := v >> 8; w > 0; w >>= 8 {
		n++
	}
	if byte(v>>(8*(n-1)))&0x80 != 0 {
		n++
	}
	return n
}

// appendUint appends an unsigned integer (Counter32/Gauge32/TimeTicks/
// Counter64) with the given tag.
func appendUint(out []byte, tag byte, v uint64) []byte {
	n := uintLen(v)
	out = append(out, tag, byte(n))
	if n > 8 {
		out, n = append(out, 0), 8
	}
	for i := n - 1; i >= 0; i-- {
		out = append(out, byte(v>>(8*i)))
	}
	return out
}

// berReader walks a BER byte stream.
type berReader struct {
	buf []byte
	off int
}

// readTLV reads one element, returning its tag and content slice
// (aliasing the input).
func (r *berReader) readTLV() (tag byte, content []byte, err error) {
	if r.off >= len(r.buf) {
		return 0, nil, ErrBERTruncated
	}
	tag = r.buf[r.off]
	r.off++
	if r.off >= len(r.buf) {
		return 0, nil, ErrBERTruncated
	}
	l := int(r.buf[r.off])
	r.off++
	if l >= 0x80 {
		nbytes := l & 0x7F
		if nbytes == 0 || nbytes > 4 {
			return 0, nil, fmt.Errorf("%w: %d length octets", ErrBERLength, nbytes)
		}
		if r.off+nbytes > len(r.buf) {
			return 0, nil, ErrBERTruncated
		}
		l = 0
		for i := 0; i < nbytes; i++ {
			l = l<<8 | int(r.buf[r.off])
			r.off++
		}
		if l < 0x80 && nbytes > 1 {
			// tolerated: non-minimal long form
		}
	}
	if l < 0 || r.off+l > len(r.buf) {
		return 0, nil, ErrBERTruncated
	}
	content = r.buf[r.off : r.off+l]
	r.off += l
	return tag, content, nil
}

// expect reads one element and verifies its tag.
func (r *berReader) expect(tag byte) ([]byte, error) {
	got, content, err := r.readTLV()
	if err != nil {
		return nil, err
	}
	if got != tag {
		return nil, fmt.Errorf("%w: got 0x%02X, want 0x%02X", ErrBERTag, got, tag)
	}
	return content, nil
}

// done reports whether the reader has consumed its buffer.
func (r *berReader) done() bool { return r.off >= len(r.buf) }

// parseInt decodes two's-complement INTEGER content.
func parseInt(content []byte) (int64, error) {
	if len(content) == 0 || len(content) > 8 {
		return 0, fmt.Errorf("%w: %d bytes", ErrBERInteger, len(content))
	}
	v := int64(int8(content[0])) // sign-extend
	for _, b := range content[1:] {
		v = v<<8 | int64(b)
	}
	return v, nil
}

// parseUint decodes unsigned integer content (possibly with a leading
// zero pad octet).
func parseUint(content []byte) (uint64, error) {
	if len(content) == 0 {
		return 0, fmt.Errorf("%w: empty", ErrBERInteger)
	}
	if len(content) > 9 || (len(content) == 9 && content[0] != 0) {
		return 0, fmt.Errorf("%w: %d bytes", ErrBERInteger, len(content))
	}
	var v uint64
	for _, b := range content {
		v = v<<8 | uint64(b)
	}
	return v, nil
}
