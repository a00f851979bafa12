package rtp

import (
	"fmt"
	"sort"
	"sync"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/obs"
)

// Receiver restores sequence order for one SSRC with a bounded reorder
// buffer, providing the substrate's "limited in-order delivery
// assurance": packets are released strictly in sequence order; a gap
// is waited out only while the buffer holds fewer than Window packets,
// after which the missing packets are declared lost and delivery skips
// past them.  There is no retransmission.
//
// Receiver also accumulates RFC 3550-style reception statistics
// (expected vs. received counts, interarrival jitter) for RTCP
// receiver reports.
type Receiver struct {
	mu sync.Mutex

	window  int
	started bool
	next    uint16 // next sequence number to release

	// buffered out-of-order packets keyed by seq
	buf map[uint16]Packet

	// held stamps each buffered packet's arrival (UnixNano) while
	// instrumentation is on, so the reorder stage histogram can record
	// how long packets waited for release.  Nil entries are tolerated:
	// packets buffered while instrumentation was off simply go
	// unmeasured.
	held map[uint16]int64

	// statistics
	baseSeq      uint16
	maxSeq       uint16
	cycles       uint32 // seq wrap count (shifted by 16 in extended seq)
	received     uint64 // raw push count, duplicates included
	uniq         uint64 // distinct packets (duplicates excluded)
	lost         uint64
	dup          uint64
	late         uint64
	jitter       float64 // RFC 3550 interarrival jitter estimate
	lastTransit  int64
	haveTransit  bool
	expectedPrev uint64
	uniqPrev     uint64

	// lostSeqs remembers sequence numbers declared lost by a window
	// skip, so a late arrival of one of them is recognized as a unique
	// (recovered) packet rather than a duplicate.  lostRing holds the
	// last maxLostTracked declarations in order, the next slot to
	// overwrite at lostNext: a declaration that old leaves the set.
	lostSeqs map[uint16]struct{}
	lostRing []uint16
	lostNext int

	// clk stamps held; nil means wall time (virtual under simulation).
	clk clock.Clock
}

// maxLostTracked bounds the declared-lost set; past it the oldest
// declarations give way (an extremely late recovery then counts as a
// duplicate, slightly overstating loss — the safe direction).  Oldest
// first, not whichever key map iteration yields: two runs over the same
// stream must report the same loss.
const maxLostTracked = 4096

// NewReceiver creates a receiver with the given reorder window
// (maximum number of buffered out-of-order packets; minimum 1).
func NewReceiver(window int) *Receiver {
	if window < 1 {
		window = 1
	}
	return &Receiver{window: window, buf: make(map[uint16]Packet)}
}

// SetClock pins reorder-hold timestamps to c (nil restores wall time).
func (r *Receiver) SetClock(c clock.Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clk = c
}

// Push ingests a packet and returns the packets now deliverable in
// order (possibly none, possibly several).  arrival and the packet
// timestamp are in the same clock units and feed the jitter estimate.
func (r *Receiver) Push(p Packet, arrival uint32) []Packet {
	r.mu.Lock()
	defer r.mu.Unlock()

	if !r.started {
		r.started = true
		r.next = p.Seq
		r.baseSeq = p.Seq
		r.maxSeq = p.Seq
	}

	r.updateStatsLocked(p, arrival)

	// Late or duplicate: seq strictly before the release point.  A seq
	// previously declared lost is a unique packet arriving too late to
	// deliver (it still corrects the loss accounting); anything else
	// below the release point is a duplicate of a delivered packet and
	// must not count toward the received totals.
	if SeqLess(p.Seq, r.next) {
		if _, wasLost := r.lostSeqs[p.Seq]; wasLost {
			delete(r.lostSeqs, p.Seq)
			r.uniq++
		}
		r.late++
		return nil
	}
	if _, ok := r.buf[p.Seq]; ok {
		r.dup++
		return nil
	}
	r.uniq++
	r.buf[p.Seq] = p
	instrumented := obs.Enabled()
	if instrumented {
		if r.held == nil {
			r.held = make(map[uint16]int64)
		}
		r.held[p.Seq] = clock.Or(r.clk).Now().UnixNano()
	}

	var out []Packet
	// Release the contiguous run starting at next.
	for {
		q, ok := r.buf[r.next]
		if !ok {
			break
		}
		delete(r.buf, r.next)
		r.observeReleaseLocked(r.next)
		out = append(out, q)
		r.next++
	}
	// Window overflow: skip the smallest gap(s) and release what we can.
	for len(r.buf) >= r.window {
		seqs := make([]uint16, 0, len(r.buf))
		for s := range r.buf {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return SeqLess(seqs[i], seqs[j]) })
		skipped := SeqDiff(r.next, seqs[0])
		r.lost += uint64(skipped)
		r.noteLostLocked(r.next, seqs[0])
		if instrumented {
			obs.Note(uint64(p.SSRC), obs.StageReorder,
				fmt.Sprintf("ssrc %08x: reorder window skip, %d packets declared lost", p.SSRC, skipped))
		}
		r.next = seqs[0]
		for {
			q, ok := r.buf[r.next]
			if !ok {
				break
			}
			delete(r.buf, r.next)
			r.observeReleaseLocked(r.next)
			out = append(out, q)
			r.next++
		}
	}
	return out
}

// observeReleaseLocked records how long the released packet waited in
// the reorder buffer (no-op for packets buffered while
// instrumentation was off).
func (r *Receiver) observeReleaseLocked(seq uint16) {
	if r.held == nil {
		return
	}
	if t, ok := r.held[seq]; ok {
		obs.StageHistogram(obs.StageReorder).Observe(clock.Or(r.clk).Now().UnixNano() - t)
		delete(r.held, seq)
	}
}

// noteLostLocked records [from, to) as declared lost so late arrivals
// of those seqs are recognized as recoveries, not duplicates.
func (r *Receiver) noteLostLocked(from, to uint16) {
	if r.lostSeqs == nil {
		r.lostSeqs = make(map[uint16]struct{})
	}
	for s := from; s != to; s++ {
		if len(r.lostRing) < maxLostTracked {
			r.lostRing = append(r.lostRing, s)
		} else {
			delete(r.lostSeqs, r.lostRing[r.lostNext]) // no-op if it was recovered since
			r.lostRing[r.lostNext] = s
			r.lostNext = (r.lostNext + 1) % maxLostTracked
		}
		r.lostSeqs[s] = struct{}{}
	}
}

func (r *Receiver) updateStatsLocked(p Packet, arrival uint32) {
	r.received++
	// Extended sequence tracking (wrap detection).
	if SeqLess(r.maxSeq, p.Seq) {
		if p.Seq < r.maxSeq { // wrapped
			r.cycles++
		}
		r.maxSeq = p.Seq
	}
	// RFC 3550 interarrival jitter: J += (|D| - J) / 16.
	transit := int64(arrival) - int64(p.Timestamp)
	if r.haveTransit {
		d := transit - r.lastTransit
		if d < 0 {
			d = -d
		}
		r.jitter += (float64(d) - r.jitter) / 16
	}
	r.lastTransit = transit
	r.haveTransit = true
}

// Stats is a snapshot of reception statistics.
type Stats struct {
	Received uint64 // raw packet arrivals, duplicates included
	// Unique counts distinct packets (duplicates excluded, late
	// recoveries of declared-lost packets included) — the RFC 3550
	// "received" figure the expected/received loss math needs.
	Unique     uint64
	Lost       uint64 // declared lost by window skips
	Duplicates uint64
	Late       uint64
	Buffered   int
	Jitter     float64
	// ExpectedTotal is the extended-sequence-number-based expected
	// packet count since the first packet.
	ExpectedTotal uint64
}

// Snapshot returns current statistics.
func (r *Receiver) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Received:      r.received,
		Unique:        r.uniq,
		Lost:          r.lost,
		Duplicates:    r.dup,
		Late:          r.late,
		Buffered:      len(r.buf),
		Jitter:        r.jitter,
		ExpectedTotal: r.expectedLocked(),
	}
}

func (r *Receiver) expectedLocked() uint64 {
	if !r.started {
		return 0
	}
	extMax := uint64(r.cycles)<<16 | uint64(r.maxSeq)
	extBase := uint64(r.baseSeq)
	return extMax - extBase + 1
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
		HighestSeq:   uint32(r.cycles)<<16 | uint32(r.maxSeq),
		Jitter:       uint32(r.jitter),
	}
}
