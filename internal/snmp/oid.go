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

// encodeOID renders the OID arcs in BER content form (first two arcs
// packed as 40*x+y, remaining arcs base-128 with continuation bits).
func encodeOID(o OID) ([]byte, error) {
	if len(o) < 2 {
		return nil, fmt.Errorf("%w: needs at least two arcs", ErrBadOID)
	}
	if o[0] > 2 || (o[0] < 2 && o[1] > 39) {
		return nil, fmt.Errorf("%w: first arcs %d.%d", ErrBadOID, o[0], o[1])
	}
	out := make([]byte, 0, len(o)+4)
	out = appendBase128(out, uint64(o[0])*40+uint64(o[1]))
	for _, arc := range o[2:] {
		out = appendBase128(out, uint64(arc))
	}
	return out, nil
}

// maxSubID is the largest subidentifier an OID of 32-bit arcs encodes:
// the first, which packs 2.(2^32-1) as 80+arc.
const maxSubID = 80 + math.MaxUint32

// decodeOID parses BER OID content bytes.
func decodeOID(b []byte) (OID, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty content", ErrBadOID)
	}
	var arcs []uint64
	var cur uint64
	for i, c := range b {
		// Checked every octet, so the shift never overflows and no
		// subidentifier can wrap into a smaller one.
		if cur = cur<<7 | uint64(c&0x7F); cur > maxSubID {
			return nil, fmt.Errorf("%w: arc overflow", ErrBadOID)
		}
		if c&0x80 == 0 {
			arcs = append(arcs, cur)
			cur = 0
		} else if i == len(b)-1 {
			return nil, fmt.Errorf("%w: truncated arc", ErrBadOID)
		}
	}
	first := arcs[0]
	var o OID
	switch {
	case first < 40:
		o = OID{0, uint32(first)}
	case first < 80:
		o = OID{1, uint32(first - 40)}
	default:
		o = OID{2, uint32(first - 80)}
	}
	for _, a := range arcs[1:] {
		if a > 0xFFFFFFFF {
			return nil, fmt.Errorf("%w: arc %d exceeds 32 bits", ErrBadOID, a)
		}
		o = append(o, uint32(a))
	}
	return o, nil
}

func appendBase128(out []byte, v uint64) []byte {
	if v == 0 {
		return append(out, 0)
	}
	var tmp [10]byte
	n := 0
	for v > 0 {
		tmp[n] = byte(v & 0x7F)
		v >>= 7
		n++
	}
	for i := n - 1; i >= 0; i-- {
		b := tmp[i]
		if i > 0 {
			b |= 0x80
		}
		out = append(out, b)
	}
	return out
}
