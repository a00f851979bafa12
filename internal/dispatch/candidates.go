package dispatch

import (
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
)

// Membership is the slice of the registry layer the dispatch path
// needs for candidate enumeration.  *registry.Registry implements it.
type Membership interface {
	// AppendMatchIDs appends to dst the IDs of the clients matching
	// sel exactly (index-first when the registry has one, brute-force
	// otherwise); a nil sel matches every registered client.
	AppendMatchIDs(dst []string, sel *selector.Selector) []string
}

// Candidates appends to dst the client IDs a message's per-client
// pipelines should be offered to, index-first: only the clients whose
// profiles satisfy the message selector, so the per-message fan-out
// cost tracks the matching subset instead of the registered population.
// A message with no selector is offered to everyone.  A relay that
// enumerates for one message at a time passes the list it used last,
// emptied, and allocates none.
//
// Candidates is a pruning pre-filter: the Match stage re-verifies each
// candidate against its live flattened profile (clients may depart or
// mutate between enumeration and delivery).  An unparsable selector
// appends no candidates, mirroring MatchProfile's fail-closed contract.
func Candidates(reg Membership, m *message.Message, dst []string) []string {
	if m == nil {
		return reg.AppendMatchIDs(dst, nil)
	}
	sel, err := m.CompiledSelector()
	if err != nil {
		return dst // fail-closed, like the brute path delivering to no one
	}
	return reg.AppendMatchIDs(dst, sel)
}
