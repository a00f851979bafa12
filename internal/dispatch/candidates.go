package dispatch

import (
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
)

// Membership is the slice of the registry layer the dispatch path
// needs for candidate enumeration: the full population and the
// selector-matching subset.  *registry.Registry implements it.
type Membership interface {
	// IDs returns every registered client ID.
	IDs() []string
	// MatchIDs returns the IDs of the clients matching sel exactly
	// (index-first when the registry has one, brute-force otherwise).
	MatchIDs(sel *selector.Selector) []string
}

// Candidates returns the client IDs a message's per-client pipelines
// should be offered to, index-first: only the clients whose profiles
// satisfy the message selector, so the per-message fan-out cost tracks
// the matching subset instead of the registered population.  A message
// with no selector is offered to everyone.
//
// Candidates is a pruning pre-filter: the Match stage re-verifies each
// candidate against its live flattened profile (clients may depart or
// mutate between enumeration and delivery).  An unparsable selector
// returns no candidates, mirroring MatchProfile's fail-closed contract.
func Candidates(reg Membership, m *message.Message) []string {
	if m == nil || m.Selector == "" {
		return reg.IDs()
	}
	sel, err := m.CompiledSelector()
	if err != nil {
		return nil // fail-closed, like the brute path delivering to no one
	}
	if sel == nil {
		return reg.IDs()
	}
	return reg.MatchIDs(sel)
}
