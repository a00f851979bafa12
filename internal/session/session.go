// Package session holds the building blocks of a collaboration
// session: group formation around an objective and result space,
// per-stream event ordering (the order buffer every replica and the
// archiving coordinator run) and lock arbitration for shared objects.
// The session itself runs on the wire: core.CoordinatorKernel numbers
// and archives its frames and arbitrates its locks.
package session

import (
	"slices"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// Group defines what a collaboration session is about.  A more precise
// objective definition yields higher satisfaction; the result space
// lists the outcomes the session supports (sharing comments, documents,
// images, ...).  Smaller groups among members with closer interests
// form by addressing each message with a selector over profiles.
type Group struct {
	// Objective names the shared goal ("crisis-response-sector-7",
	// "auction:modems").
	Objective string
	// ResultSpace lists the capabilities the session offers.
	ResultSpace []string
	// Filter admits only senders whose ID-only profile satisfies it
	// (nil admits everyone): the coordinator archives no other frames.
	Filter *selector.Selector
}

// Admits reports whether a client profile may join the group.
func (g *Group) Admits(p *profile.Profile) bool {
	return g.Filter == nil || p.Matches(g.Filter)
}

// Offers reports whether the group's result space includes a
// capability.
func (g *Group) Offers(result string) bool { return slices.Contains(g.ResultSpace, result) }

// Event is one sequenced session event.
type Event struct {
	// Seq is the sender's own sequence number, the order buffer's key.
	Seq uint64
	// Sender is the originating client.
	Sender string
	// Payload is the event's bytes; the core receive kernel parks the
	// whole received frame here.
	Payload []byte
	// At is when the event reached its order buffer, in UnixNano on
	// the clock of the node that pushed it, or 0 if it was not stamped.
	// The buffer only carries it: the receive kernel reads it off the
	// released event to time the reorder stage.
	At int64
}
