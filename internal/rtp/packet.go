// Package rtp is the thin RTP/RTCP-style layer the framework builds on
// UDP multicast: sequence numbers and timestamps on data packets, a
// per-sender Receiver that counts expected, unique, duplicate and late
// packets and estimates interarrival jitter, and RTCP-style receiver
// reports carrying loss fraction and jitter, so the QoS machinery can
// adapt.  Nothing is retransmitted: collaboration is real-time, and
// late data is stale data.
//
// The layer's "limited in-order delivery assurance" lives where the
// data is used: an image viewer accepts a share's packets as an
// index-ordered prefix (internal/apps), and a client kernel releases
// events through a per-sender order buffer (internal/session).
package rtp

import (
	"encoding/binary"
	"errors"
)

// HeaderLen is the fixed packet header size in bytes.
const HeaderLen = 12

// Version is the protocol version carried in every packet.
const Version = 2

// Packet errors.
var (
	ErrShort   = errors.New("rtp: packet shorter than header")
	ErrVersion = errors.New("rtp: unsupported version")
	ErrHeader  = errors.New("rtp: padding, extension or CSRC list in header")
)

// Packet is an RTP-style data packet.
type Packet struct {
	// PayloadType identifies the payload encoding (application-defined).
	PayloadType uint8
	// Marker flags application-significant boundaries (e.g. the last
	// packet of an image refinement level).
	Marker bool
	// Seq is the per-SSRC sequence number; it wraps modulo 2^16.
	Seq uint16
	// Timestamp is the media timestamp in sender clock units.
	Timestamp uint32
	// SSRC identifies the synchronization source (one per sender stream).
	SSRC uint32
	// Payload is the application data.
	Payload []byte
}

// Marshal encodes the packet.
//
// Header layout (big-endian), a simplified RFC 3550 fixed header with
// no CSRC list or extensions:
//
//	byte 0: version(2 bits)=2, padding=0, extension=0, cc=0
//	byte 1: marker(1 bit) | payload type(7 bits)
//	bytes 2-3: sequence number
//	bytes 4-7: timestamp
//	bytes 8-11: SSRC
func (p *Packet) Marshal() []byte { return p.AppendMarshal(make([]byte, 0, HeaderLen+len(p.Payload))) }

// AppendMarshal encodes the packet as Marshal does, appending it to dst
// and returning the extended slice: a sender frames into a buffer it
// already holds instead of a fresh one per packet.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	b1 := p.PayloadType & 0x7F
	if p.Marker {
		b1 |= 0x80
	}
	dst = append(dst, Version<<6, b1)
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = binary.BigEndian.AppendUint32(dst, p.Timestamp)
	dst = binary.BigEndian.AppendUint32(dst, p.SSRC)
	return append(dst, p.Payload...)
}

// Unmarshal decodes a packet frame.  Payload aliases frame rather than
// copying it: a caller that reuses frame's buffer copies what it keeps.
// It accepts exactly what Marshal writes: a frame with the padding or
// extension bit or a CSRC count set is refused, not read as payload.
func Unmarshal(frame []byte) (Packet, error) {
	if len(frame) < HeaderLen {
		return Packet{}, ErrShort
	}
	if frame[0]>>6 != Version {
		return Packet{}, ErrVersion
	}
	if frame[0]&0x3F != 0 {
		return Packet{}, ErrHeader
	}
	return Packet{
		PayloadType: frame[1] & 0x7F,
		Marker:      frame[1]&0x80 != 0,
		Seq:         binary.BigEndian.Uint16(frame[2:]),
		Timestamp:   binary.BigEndian.Uint32(frame[4:]),
		SSRC:        binary.BigEndian.Uint32(frame[8:]),
		Payload:     frame[HeaderLen:],
	}, nil
}

// SeqLess reports whether sequence number a precedes b in modular
// (RFC 1982 serial number) order, tolerating wraparound.
func SeqLess(a, b uint16) bool {
	return a != b && b-a < 1<<15
}

// SeqDiff returns the forward distance from a to b modulo 2^16.
func SeqDiff(a, b uint16) uint16 { return b - a }
