package dispatch

import (
	"sort"
	"testing"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
)

// stubMembership records which enumeration path Candidates took.
type stubMembership struct {
	all      []string
	matching []string
	lastSel  *selector.Selector
	idCalls  int
}

func (s *stubMembership) IDs() []string {
	s.idCalls++
	return s.all
}

func (s *stubMembership) MatchIDs(sel *selector.Selector) []string {
	s.lastSel = sel
	return s.matching
}

func TestCandidates(t *testing.T) {
	reg := &stubMembership{
		all:      []string{"w0", "w1", "w2", "w3"},
		matching: []string{"w2"},
	}

	// No message and no selector both mean the whole population.
	if got := Candidates(reg, nil); len(got) != 4 {
		t.Errorf("nil message: %v", got)
	}
	if got := Candidates(reg, &message.Message{}); len(got) != 4 {
		t.Errorf("empty selector: %v", got)
	}

	if reg.lastSel != nil {
		t.Error("a message without a selector still called MatchIDs")
	}

	// A selector: only the matching subset, via MatchIDs.
	m := &message.Message{Selector: `media == "video"`}
	got := Candidates(reg, m)
	sort.Strings(got)
	if len(got) != 1 || got[0] != "w2" {
		t.Errorf("with a selector: %v", got)
	}
	if reg.lastSel == nil || reg.lastSel.Source() != m.Selector {
		t.Errorf("MatchIDs saw selector %v", reg.lastSel)
	}

	// An unparsable selector is fail-closed: no candidates, matching
	// MatchProfile's behavior of delivering to no one.
	bad := &message.Message{Selector: `media ==`}
	if got := Candidates(reg, bad); got != nil {
		t.Errorf("unparsable selector: %v", got)
	}
}
