// Package session holds the building blocks of a collaboration
// session: group formation around an objective and result space,
// per-stream event ordering (the order buffer every replica and the
// archiving coordinator run), concurrency control for shared objects,
// and an in-process Session for an arbiter that lives in one process.
// The networked archiving coordinator is core.CoordinatorKernel.
package session

import (
	"errors"
	"fmt"
	"sync"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// Session errors.
var (
	ErrNotMember   = errors.New("session: client is not a member")
	ErrMember      = errors.New("session: client is already a member")
	ErrNotAdmitted = errors.New("session: profile does not satisfy the group filter")
)

// Group defines what a collaboration session is about.  A more precise
// objective definition yields higher satisfaction; the result space
// lists the outcomes the session supports (sharing comments, documents,
// images, ...).  The filter forms smaller groups among members with
// closer interests.
type Group struct {
	// Objective names the shared goal ("crisis-response-sector-7",
	// "auction:modems").
	Objective string
	// ResultSpace lists the capabilities the session offers.
	ResultSpace []string
	// Filter admits only clients whose profile satisfies it; nil
	// admits everyone.
	Filter *selector.Selector
}

// Admits reports whether a client profile may join the group.
func (g *Group) Admits(p *profile.Profile) bool {
	return g.Filter == nil || p.Matches(g.Filter)
}

// Offers reports whether the group's result space includes a
// capability.
func (g *Group) Offers(result string) bool {
	for _, r := range g.ResultSpace {
		if r == result {
			return true
		}
	}
	return false
}

// Event is one sequenced session event.
type Event struct {
	// Seq is the sequence number: assigned by the session, or the
	// sender's own in an order buffer.
	Seq uint64
	// Sender is the originating client.
	Sender string
	// App names the application ("chat", "whiteboard", "imageviewer").
	App string
	// Object is the shared object concerned, if any.
	Object string
	// Payload is the application-encoded event body.
	Payload []byte
}

// Session is one collaboration session held in a single process:
// membership plus a totally ordered event history, every event
// numbered by Commit.  It suits an arbiter whose members call it
// directly (examples/auction); on the wire, the archiving coordinator
// numbers and keeps frames itself.
type Session struct {
	Group Group

	mu      sync.RWMutex
	members map[string]*profile.Profile
	archive []Event // archive[i] has Seq i+1
}

// New creates an empty session for the group.
func New(g Group) *Session {
	return &Session{Group: g, members: make(map[string]*profile.Profile)}
}

// Join admits a client; its profile must satisfy the group filter.
func (s *Session) Join(p *profile.Profile) error {
	if !s.Group.Admits(p) {
		return fmt.Errorf("%w: %s", ErrNotAdmitted, p.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.members[p.ID]; ok {
		return fmt.Errorf("%w: %s", ErrMember, p.ID)
	}
	s.members[p.ID] = p.Clone()
	return nil
}

// Members returns the current member count.
func (s *Session) Members() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.members)
}

// Commit assigns the next global sequence number to an event from a
// member, archives it and returns the sequenced event.
func (s *Session) Commit(sender, app, object string, payload []byte) (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.members[sender]; !ok {
		return Event{}, fmt.Errorf("%w: %s", ErrNotMember, sender)
	}
	ev := Event{
		Seq:     uint64(len(s.archive)) + 1,
		Sender:  sender,
		App:     app,
		Object:  object,
		Payload: append([]byte(nil), payload...),
	}
	s.archive = append(s.archive, ev)
	return ev, nil
}

// History returns archived events with Seq > afterSeq, in order — the
// catch-up stream for a late joiner.
func (s *Session) History(afterSeq uint64) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Event(nil), s.archive[min(afterSeq, uint64(len(s.archive))):]...)
}
