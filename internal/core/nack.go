package core

import (
	"encoding/binary"
	"math"

	"adaptiveqos/internal/session"
)

// The body of a NACK (DESIGN.md §10) lists the sender sequence numbers
// the requester is missing as ascending inclusive ranges, each a pair
// of uvarints (From − prev, To − From) where prev is one past the
// previous range's To and 0 for the first, closed by one lone uvarint
// (From − prev) that opens a last range with no upper end: everything
// the requester has not seen yet.  Deltas keep a typical list at two bytes per hole, and because
// they are unsigned an inverted or overlapping list cannot be written
// down — the parser only has to refuse values that run past the
// 32-bit sequence space.

const (
	// maxNackHoles is how many closed ranges one NACK carries; with the
	// open range that is at most 10·maxNackHoles+5 body bytes (about
	// two per hole in practice), one datagram at the default 8 KiB MTU
	// and at the 1 KiB the tests configure.  A receiver behind more
	// holes than that names the lowest and asks for the rest in later
	// rounds.
	maxNackHoles = 64
	// maxSenderSeq is the last sender sequence number (message.Seq is
	// 32 bits on the wire) and stands for "no upper end".
	maxSenderSeq = math.MaxUint32
)

// appendHoles encodes holes followed by the open range starting at
// past.  holes must be ascending, disjoint and below past, as
// session.OrderBuffer.Holes returns them.
func appendHoles(dst []byte, holes []session.SeqRange, past uint64) []byte {
	prev := uint64(0)
	for _, h := range holes {
		dst = binary.AppendUvarint(dst, h.From-prev)
		dst = binary.AppendUvarint(dst, h.To-h.From)
		prev = h.To + 1
	}
	return binary.AppendUvarint(dst, past-prev)
}

// parseHoles decodes a NACK body into dst[:0] and reports whether it
// was well formed: every varint complete, every range inside the
// sequence space, no more ranges than dst holds.  The open range comes
// back as one ending at maxSenderSeq.  It reads nothing but body and
// allocates nothing, whatever the bytes.
func parseHoles(body []byte, dst []session.SeqRange) ([]session.SeqRange, bool) {
	dst = dst[:0]
	prev := uint64(0)
	for len(body) > 0 {
		gap, n := binary.Uvarint(body)
		if n <= 0 || prev > maxSenderSeq || gap > maxSenderSeq-prev || len(dst) == cap(dst) {
			return nil, false
		}
		body = body[n:]
		r := session.SeqRange{From: prev + gap, To: maxSenderSeq}
		if len(body) == 0 {
			return append(dst, r), true
		}
		span, n := binary.Uvarint(body)
		if n <= 0 || span > maxSenderSeq-r.From {
			return nil, false
		}
		body = body[n:]
		r.To = r.From + span
		dst = append(dst, r)
		prev = r.To + 1
	}
	return dst, true
}
