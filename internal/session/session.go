// Package session implements collaboration sessions: group formation
// around an objective and result space, membership tracking, total
// event ordering, concurrency control for shared objects, and session
// archival so late joiners can catch up with history.
package session

import (
	"errors"
	"fmt"
	"sort"
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

// Event is one archived session event.
type Event struct {
	// Seq is the global sequence number assigned by the session.
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

// Session is one collaboration session: membership plus a totally
// ordered, archived event history.  The session plays the role of the
// central coordinator where one exists (the base station for wireless
// legs); wired peers each hold a replica that converges because events
// carry the coordinator-assigned sequence.
type Session struct {
	Group Group

	mu      sync.RWMutex
	members map[string]*profile.Profile
	nextSeq uint64
	archive []Event
	// archiveCap bounds history; 0 = unlimited.
	archiveCap int
}

// New creates an empty session for the group.
func New(g Group) *Session {
	return &Session{Group: g, members: make(map[string]*profile.Profile)}
}

// SetArchiveCap bounds the archived history to the most recent n
// events (0 = unlimited).
func (s *Session) SetArchiveCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.archiveCap = n
	s.trimLocked()
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

// IsMember reports membership.
func (s *Session) IsMember(id string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.members[id]
	return ok
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
	s.nextSeq++
	ev := Event{
		Seq:     s.nextSeq,
		Sender:  sender,
		App:     app,
		Object:  object,
		Payload: append([]byte(nil), payload...),
	}
	s.archive = append(s.archive, ev)
	s.trimLocked()
	return ev, nil
}

func (s *Session) trimLocked() {
	if drop := len(s.archive) - s.archiveCap; s.archiveCap > 0 && drop > 0 {
		// Slide the window instead of copying it: the cut events are
		// cleared so their payloads are not retained, and append moves
		// the survivors only when the backing array runs out.
		clear(s.archive[:drop])
		s.archive = s.archive[drop:]
	}
}

// afterLocked returns the archived events with Seq > afterSeq (the
// archive is ordered by Seq).  The caller holds the lock.
func (s *Session) afterLocked(afterSeq uint64) []Event {
	i := sort.Search(len(s.archive), func(i int) bool { return s.archive[i].Seq > afterSeq })
	return s.archive[i:]
}

// History returns archived events with Seq > afterSeq, in order — the
// catch-up stream for a late joiner.
func (s *Session) History(afterSeq uint64) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Event(nil), s.afterLocked(afterSeq)...)
}

// HistoryPage is History in bounded pieces: it copies the first
// len(buf) archived events with Seq > afterSeq into buf and returns
// how many it copied.  A caller that walks a long archive passes the
// last Seq it saw as the next afterSeq and never materialises the
// whole history.
func (s *Session) HistoryPage(afterSeq uint64, buf []Event) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return copy(buf, s.afterLocked(afterSeq))
}

// LastSeq returns the highest assigned sequence number.
func (s *Session) LastSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextSeq
}
