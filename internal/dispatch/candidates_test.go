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
	calls    int
}

func (s *stubMembership) AppendMatchIDs(dst []string, sel *selector.Selector) []string {
	s.calls++
	s.lastSel = sel
	if sel == nil {
		return append(dst, s.all...)
	}
	return append(dst, s.matching...)
}

func TestCandidates(t *testing.T) {
	reg := &stubMembership{
		all:      []string{"w0", "w1", "w2", "w3"},
		matching: []string{"w2"},
	}

	// No message and no selector both mean the whole population.
	if got := Candidates(reg, nil, nil); len(got) != 4 {
		t.Errorf("nil message: %v", got)
	}
	if got := Candidates(reg, &message.Message{}, nil); len(got) != 4 {
		t.Errorf("empty selector: %v", got)
	}

	if reg.lastSel != nil {
		t.Error("a message without a selector was matched against one")
	}

	// A selector: only the matching subset.
	m := &message.Message{Selector: `media == "video"`}
	got := Candidates(reg, m, nil)
	sort.Strings(got)
	if len(got) != 1 || got[0] != "w2" {
		t.Errorf("with a selector: %v", got)
	}
	if reg.lastSel == nil || reg.lastSel.Source() != m.Selector {
		t.Errorf("AppendMatchIDs saw selector %v", reg.lastSel)
	}

	// The candidates are appended to the list handed in: a relay reuses
	// one across messages.
	dst := make([]string, 0, 8)
	if got := Candidates(reg, m, dst); len(got) != 1 || &got[:1][0] != &dst[:1][0] {
		t.Errorf("into a list with room: %v, not appended in place", got)
	}

	// An unparsable selector is fail-closed: no candidates, matching
	// MatchProfile's behavior of delivering to no one.
	calls := reg.calls
	bad := &message.Message{Selector: `media ==`}
	if got := Candidates(reg, bad, dst); len(got) != 0 || reg.calls != calls {
		t.Errorf("unparsable selector: %v after %d enumerations", got, reg.calls-calls)
	}
}
