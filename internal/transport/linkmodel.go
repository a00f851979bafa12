package transport

import (
	"math/rand"
	"time"
)

// Link describes the characteristics of a directed link in the
// simulated network.  The zero value is an ideal link: infinite
// bandwidth, zero delay, no loss.
type Link struct {
	// BandwidthBps is the link bandwidth in bits/s; 0 means unlimited.
	BandwidthBps float64
	// Delay is the fixed propagation delay.  Without Jitter a link is
	// FIFO on either scheduler: one sender's frames arrive in the order
	// sent, since deliveries due at the same instant leave in the order
	// they were scheduled.
	Delay time.Duration
	// Jitter adds a uniformly distributed random delay in [0, Jitter].
	Jitter time.Duration
	// Loss is the independent per-frame loss probability in [0, 1].
	Loss float64
	// Duplicate is the probability a delivered frame arrives twice.
	Duplicate float64
	// Down disconnects the link entirely (partition injection).
	Down bool
}

// linkPlan is the outcome of applying a Link's model to one frame:
// whether it is dropped, how many copies arrive (duplication), the
// latency until delivery, and the link's updated serialization
// horizon.
type linkPlan struct {
	drop   bool
	copies int
	delay  time.Duration // propagation + jitter + serialization queueing
	busy   time.Time     // instant the link frees up (bandwidth model)
}

// planLink draws one frame's fate from the link model.  busy is the
// link's current serialization horizon and now the clock reading both
// are measured on.  The rng draws (loss, duplication, jitter) must
// come from a seeded source owned by the caller for reproducibility.
func planLink(l Link, frameLen int, rng *rand.Rand, busy, now time.Time) linkPlan {
	if l.Down || (l.Loss > 0 && rng.Float64() < l.Loss) {
		return linkPlan{drop: true, busy: busy}
	}
	p := linkPlan{copies: 1, busy: busy}
	if l.Duplicate > 0 && rng.Float64() < l.Duplicate {
		p.copies = 2
	}
	p.delay = l.Delay
	if l.Jitter > 0 {
		p.delay += time.Duration(rng.Int63n(int64(l.Jitter) + 1))
	}
	if l.BandwidthBps > 0 {
		ser := time.Duration(float64(frameLen*8) / l.BandwidthBps * float64(time.Second))
		// Serialization occupies the link: back-to-back sends queue
		// behind the instant the link frees up.
		if p.busy.Before(now) {
			p.busy = now
		}
		p.busy = p.busy.Add(ser)
		p.delay += p.busy.Sub(now)
	}
	return p
}
