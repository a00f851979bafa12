package rtp

import "sync"

// Receiver accumulates RFC 3550-style reception statistics for one
// sender — expected versus unique packet counts, duplicates, late
// arrivals and interarrival jitter — for RTCP receiver reports and the
// loss the adaptation loop reads.  It keeps no packets: in-order
// assurance lives where the data is used (an image viewer's accepted
// prefix, the kernel's event order buffer).
//
// A sender's data may arrive under more than one SSRC (a base station
// frames every relayed share under its own).  A packet whose SSRC
// differs from the one being followed starts a new stream (RFC 3550
// §8.2): the finished stream's expected count is kept in the totals,
// and sequence and jitter state restart at that packet.
type Receiver struct {
	mu sync.Mutex

	window  int // how far behind max a duplicate is still recognised
	started bool
	ssrc    uint32
	// base and max are the stream's first and highest extended seqs
	// (wraps counted above bit 16); seen has bit n-1 set when the seq n
	// behind max arrived.
	base, max, seen uint64

	doneExpected uint64 // expected packets of the streams before this one
	received     uint64 // raw push count, duplicates included
	uniq         uint64 // distinct packets (duplicates excluded)
	dup          uint64
	late         uint64
	jitter       float64 // RFC 3550 interarrival jitter estimate
	lastTransit  int64
	expectedPrev uint64
	uniqPrev     uint64
}

// maxWindow is the widest duplicate window: one seen bit per seq.
const maxWindow = 64

// NewReceiver creates a receiver that recognises a repeat up to window
// sequence numbers behind the highest seen (clamped to [1, 64]).
func NewReceiver(window int) *Receiver {
	return &Receiver{window: min(max(window, 1), maxWindow)}
}

// Push accounts for a packet.  arrival and the packet timestamp are in
// the same clock units and feed the jitter estimate.
func (r *Receiver) Push(p Packet, arrival uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.received++
	transit := int64(arrival) - int64(p.Timestamp)
	if !r.started || p.SSRC != r.ssrc {
		r.doneExpected = r.expectedLocked()
		r.started, r.ssrc = true, p.SSRC
		r.base, r.max, r.seen = uint64(p.Seq), uint64(p.Seq), 0
		r.uniq++
		r.jitter, r.lastTransit = 0, transit
		return
	}
	switch n := SeqDiff(p.Seq, uint16(r.max)); {
	case n == 0:
		r.dup++
	case SeqLess(uint16(r.max), p.Seq): // ahead: slide the seen window forward
		n = SeqDiff(uint16(r.max), p.Seq)
		r.max += uint64(n)
		r.seen = r.seen<<n | uint64(1)<<(n-1)
		r.uniq++
	default: // behind by n
		r.late++
		bit := uint64(1) << (n - 1)
		switch {
		case int(n) > r.window: // too old to tell: not counted unique
		case r.seen&bit != 0:
			r.dup++
		default:
			r.seen |= bit
			r.uniq++
		}
	}
	// RFC 3550 interarrival jitter: J += (|D| - J) / 16.
	d := transit - r.lastTransit
	if d < 0 {
		d = -d
	}
	r.jitter += (float64(d) - r.jitter) / 16
	r.lastTransit = transit
}

// Stats is a snapshot of reception statistics.
type Stats struct {
	Received uint64 // raw packet arrivals, duplicates included
	// Unique counts distinct sequence numbers (duplicates excluded) —
	// the RFC 3550 "received" figure the expected/received loss math
	// needs.
	Unique uint64
	// Duplicates counts repeats of a sequence number still in the window.
	Duplicates uint64
	// Late counts arrivals behind the highest sequence number seen;
	// one further behind than the window is neither unique nor a
	// duplicate (it may overstate loss — the safe direction).
	Late   uint64
	Jitter float64
	// ExpectedTotal is the extended-sequence-number-based expected
	// packet count, summed over every stream since the first packet.
	ExpectedTotal uint64
}

// Snapshot returns current statistics.
func (r *Receiver) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Received:      r.received,
		Unique:        r.uniq,
		Duplicates:    r.dup,
		Late:          r.late,
		Jitter:        r.jitter,
		ExpectedTotal: r.expectedLocked(),
	}
}

// expectedLocked is the expected count over every stream so far.
func (r *Receiver) expectedLocked() uint64 {
	if !r.started {
		return 0
	}
	return r.doneExpected + r.max - r.base + 1
}

// Report builds an RTCP-style receiver report block.  The fraction
// lost covers the interval since the previous Report call, per RFC
// 3550's expected/received interval accounting.  The received side of
// the interval math counts unique packets only: duplicate deliveries
// must not deflate the cumulative or fractional loss.
func (r *Receiver) Report(ssrc uint32) ReceiverReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	expected := r.expectedLocked()
	expInt := expected - r.expectedPrev
	recvInt := r.uniq - r.uniqPrev
	r.expectedPrev = expected
	r.uniqPrev = r.uniq

	var frac float64
	if expInt > 0 && expInt > recvInt {
		frac = float64(expInt-recvInt) / float64(expInt)
	}
	var cumLost int64
	if expected > r.uniq {
		cumLost = int64(expected - r.uniq)
	}
	return ReceiverReport{
		SSRC:         ssrc,
		FractionLost: frac,
		CumLost:      cumLost,
		HighestSeq:   uint32(r.max),
		Jitter:       uint32(r.jitter),
	}
}
