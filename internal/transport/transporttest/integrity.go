// Package transporttest is test support for code that sends and
// receives over the simulated networks.
package transporttest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"adaptiveqos/internal/transport"
)

// Integrity turns the buffer-ownership contract (transport.Conn,
// DESIGN.md §7.1) into a check.  Frames are shared, not copied, from
// the sender's Give to the last recipient's retained message body, so
// one party breaking the contract — a sender reusing a buffer it gave
// away, a receiver writing through a body that aliases its datagram —
// corrupts what everybody else reads.  Integrity watches a network's
// trace, copies every frame the first time it sees that backing array,
// and compares the frame with its copy at every later sight of it and
// once more when the test ends.  A frame whose bytes moved fails the
// test, naming the hop it was first seen on and the first byte that
// changed.
//
// It keeps every frame it has seen alive (so an address is never
// reused for another frame while the test runs) and a copy besides:
// attach it to tests, not to long-running sessions.
type Integrity struct {
	t       testing.TB
	mu      sync.Mutex
	frames  map[*byte]*sighting
	reports int
}

// maxReports bounds how many changed frames one test reports: a broken
// contract usually breaks every frame.
const maxReports = 8

// sighting is what Integrity remembers of a frame's first appearance.
type sighting struct {
	first    transport.TraceEvent // its Data is the frame itself
	orig     []byte               // the frame's bytes as they were then
	reported bool
}

// Traced is a network whose events can be observed: a
// *transport.SimNet or a *transport.DESNet.
type Traced interface {
	SetTrace(func(transport.TraceEvent))
}

// Watch installs an Integrity as the trace hook of each network and
// registers its final check as a cleanup of t.
func Watch(t testing.TB, nets ...Traced) *Integrity {
	g := &Integrity{t: t, frames: make(map[*byte]*sighting)}
	for _, n := range nets {
		n.SetTrace(g.Observe)
	}
	t.Cleanup(g.Check)
	return g
}

// Observe is the trace hook: it records or re-checks the event's frame.
// Safe for concurrent use, as a SimNet's deliveries require.
func (g *Integrity) Observe(ev transport.TraceEvent) {
	if len(ev.Data) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s, seen := g.frames[unsafe.SliceData(ev.Data)]
	if !seen {
		g.frames[unsafe.SliceData(ev.Data)] = &sighting{first: ev, orig: bytes.Clone(ev.Data)}
		return
	}
	g.verify(s, &ev)
}

// Check verifies every frame seen so far against its first sight.
func (g *Integrity) Check() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.frames {
		g.verify(s, nil)
	}
}

// Frames returns how many distinct frames have been seen.
func (g *Integrity) Frames() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.frames)
}

// verify compares the frame as it stands — at a later sight of its
// backing array, or with again nil at the end of the test — with what
// it held at its first.
func (g *Integrity) verify(s *sighting, again *transport.TraceEvent) {
	now, when := s.first.Data, "by the end of the test"
	if again != nil {
		now = again.Data
	}
	if s.reported || bytes.Equal(now, s.orig) {
		return
	}
	s.reported = true
	if g.reports++; g.reports > maxReports {
		return
	}
	if again != nil {
		when = fmt.Sprintf("when it reached %s (%s from %s at %d)", again.To, again.Kind, again.From, again.AtNS)
	}
	at := 0
	for at < len(now) && at < len(s.orig) && now[at] == s.orig[at] {
		at++
	}
	what := fmt.Sprintf("is %d bytes long", len(now))
	if at < len(now) && at < len(s.orig) {
		what = fmt.Sprintf("reads %#02x at byte %d, was %#02x", now[at], at, s.orig[at])
	}
	g.t.Helper()
	g.t.Errorf("frame integrity: the %d-byte frame first seen %s→%s (%s at %d, unicast=%v) had changed %s: it %s — "+
		"a sender reused a buffer it gave away, or a receiver wrote through an aliased body",
		len(s.orig), s.first.From, s.first.To, s.first.Kind, s.first.AtNS, s.first.Unicast, when, what)
}
