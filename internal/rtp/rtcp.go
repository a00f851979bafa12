package rtp

// ReceiverReport is one reception report block: how a receiver
// experienced a sender's stream.  It travels as control-message
// attributes (internal/core/rtcp.go), not in RTCP's binary form.
type ReceiverReport struct {
	// SSRC of the stream this report describes.
	SSRC uint32
	// FractionLost is the loss fraction in [0,1] over the last interval.
	FractionLost float64
	// CumLost is the cumulative number of packets lost.
	CumLost int64
	// HighestSeq is the extended highest sequence number received.
	HighestSeq uint32
	// Jitter is the interarrival jitter estimate in timestamp units.
	Jitter uint32
}

// Sender tracks outbound stream state: it stamps packets with
// monotonically increasing sequence numbers.  It is not safe for
// concurrent use; wrap it if the application sends from multiple
// goroutines.
type Sender struct {
	ssrc    uint32
	payload uint8
	seq     uint16
}

// SSRCOf derives a stream's synchronization source from its sender's
// name (FNV-1a).
func SSRCOf(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// NewSender creates a sender for one stream.
func NewSender(ssrc uint32, payloadType uint8, firstSeq uint16) *Sender {
	return &Sender{ssrc: ssrc, payload: payloadType, seq: firstSeq}
}

// Next builds the next data packet in sequence.
func (s *Sender) Next(timestamp uint32, marker bool, payload []byte) Packet {
	p := Packet{
		PayloadType: s.payload,
		Marker:      marker,
		Seq:         s.seq,
		Timestamp:   timestamp,
		SSRC:        s.ssrc,
		Payload:     payload,
	}
	s.seq++
	return p
}
