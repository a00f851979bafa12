// Package snmp implements the Simple Network Management Protocol
// (SNMPv1 and SNMPv2c) from scratch on the standard library: a BER
// codec for the ASN.1 subset SNMP uses, object identifiers, message
// and PDU encoding, an agent with a registrable MIB (the "embedded
// extension agent" run on each monitored host), and a manager client
// (the component run on the management station).
//
// The framework's network state interface uses this package to
// determine the state of network elements and hosts: it queries the
// MIB of an element by IP address, community string and the OIDs of
// the parameters of interest (bandwidth, CPU load, page faults, ...).
package snmp

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// OID is an ASN.1 object identifier: a sequence of non-negative arcs,
// e.g. 1.3.6.1.2.1.1.1.0.
type OID []uint32

// OID errors.
var (
	ErrBadOID = errors.New("snmp: malformed OID")
)

// ParseOID parses dotted-decimal text ("1.3.6.1.2.1") into an OID.
// A single leading dot is tolerated.
func ParseOID(s string) (OID, error) {
	s = strings.TrimPrefix(s, ".")
	if s == "" {
		return nil, fmt.Errorf("%w: empty", ErrBadOID)
	}
	parts := strings.Split(s, ".")
	if len(parts) < 2 {
		return nil, fmt.Errorf("%w: %q needs at least two arcs", ErrBadOID, s)
	}
	oid := make(OID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: arc %q", ErrBadOID, p)
		}
		oid[i] = uint32(v)
	}
	if oid[0] > 2 || (oid[0] < 2 && oid[1] > 39) {
		return nil, fmt.Errorf("%w: first arcs %d.%d out of range", ErrBadOID, oid[0], oid[1])
	}
	return oid, nil
}

// MustOID is ParseOID that panics on error; for OID constants.
func MustOID(s string) OID {
	oid, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return oid
}

// String renders the OID in dotted-decimal form.
func (o OID) String() string {
	if len(o) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, arc := range o {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatUint(uint64(arc), 10))
	}
	return sb.String()
}

// Compare orders OIDs lexicographically by arc, shorter prefix first:
// -1, 0, or +1.
func (o OID) Compare(p OID) int {
	n := len(o)
	if len(p) < n {
		n = len(p)
	}
	for i := 0; i < n; i++ {
		switch {
		case o[i] < p[i]:
			return -1
		case o[i] > p[i]:
			return 1
		}
	}
	switch {
	case len(o) < len(p):
		return -1
	case len(o) > len(p):
		return 1
	default:
		return 0
	}
}

// HasPrefix reports whether o starts with prefix.
func (o OID) HasPrefix(prefix OID) bool {
	if len(prefix) > len(o) {
		return false
	}
	for i, arc := range prefix {
		if o[i] != arc {
			return false
		}
	}
	return true
}

// Append returns a new OID with extra arcs appended.
func (o OID) Append(arcs ...uint32) OID {
	out := make(OID, 0, len(o)+len(arcs))
	out = append(out, o...)
	return append(out, arcs...)
}

// Clone returns an independent copy.
func (o OID) Clone() OID { return append(OID(nil), o...) }

// oidLen is the length of o's BER content (first two arcs packed as
// 40*x+y, remaining arcs base-128 with continuation bits), or an error
// for an OID BER cannot carry.
func oidLen(o OID) (int, error) {
	if len(o) < 2 {
		return 0, fmt.Errorf("%w: needs at least two arcs", ErrBadOID)
	}
	if o[0] > 2 || (o[0] < 2 && o[1] > 39) {
		return 0, fmt.Errorf("%w: first arcs %d.%d", ErrBadOID, o[0], o[1])
	}
	n := base128Len(uint64(o[0])*40 + uint64(o[1]))
	for _, arc := range o[2:] {
		n += base128Len(uint64(arc))
	}
	return n, nil
}

// appendOID appends o's BER content.  The content is also the OID's
// key in a MIB: two OIDs are equal exactly when their contents are.
func appendOID(out []byte, o OID) ([]byte, error) {
	if _, err := oidLen(o); err != nil {
		return out, err
	}
	out = appendBase128(out, uint64(o[0])*40+uint64(o[1]))
	for _, arc := range o[2:] {
		out = appendBase128(out, uint64(arc))
	}
	return out, nil
}

// maxSubID is the largest subidentifier an OID of 32-bit arcs encodes:
// the first, which packs 2.(2^32-1) as 80+arc.
const maxSubID = 80 + math.MaxUint32

// decodeOID parses BER OID content bytes into dst's storage.  On error
// it returns dst emptied.
func decodeOID(dst OID, b []byte) (OID, error) {
	if len(b) == 0 {
		return dst[:0], fmt.Errorf("%w: empty content", ErrBadOID)
	}
	o := dst[:0]
	if cap(o) <= len(b) {
		o = make(OID, 0, len(b)+1) // b holds at most len(b)+1 arcs
	}
	var cur, wide uint64
	for i, c := range b {
		// Checked every octet, so the shift never overflows and no
		// subidentifier can wrap into a smaller one.
		if cur = cur<<7 | uint64(c&0x7F); cur > maxSubID {
			return dst[:0], fmt.Errorf("%w: arc overflow", ErrBadOID)
		}
		if c&0x80 != 0 {
			if i == len(b)-1 {
				return dst[:0], fmt.Errorf("%w: truncated arc", ErrBadOID)
			}
			continue
		}
		switch {
		case len(o) > 0:
			if cur > math.MaxUint32 && wide == 0 {
				wide = cur
			}
			o = append(o, uint32(cur))
		case cur < 40:
			o = append(o, 0, uint32(cur))
		case cur < 80:
			o = append(o, 1, uint32(cur-40))
		default:
			o = append(o, 2, uint32(cur-80))
		}
		cur = 0
	}
	if wide != 0 {
		return dst[:0], fmt.Errorf("%w: arc %d exceeds 32 bits", ErrBadOID, wide)
	}
	return o, nil
}

// base128Len is the number of base-128 digits of v.
func base128Len(v uint64) int {
	n := 1
	for v >>= 7; v > 0; v >>= 7 {
		n++
	}
	return n
}

func appendBase128(out []byte, v uint64) []byte {
	for i := base128Len(v) - 1; i > 0; i-- {
		out = append(out, byte(v>>(7*i))|0x80)
	}
	return append(out, byte(v)&0x7F)
}
