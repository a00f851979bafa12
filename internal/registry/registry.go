// Package registry is the broker's membership layer: it owns the
// client profiles, their memoized flattened attribute views and the
// per-client radio state (the service assessments the base station
// folds back into each profile) in one table behind one lock, beside
// one match index.  It is the first of the broker's layers (registry →
// the station's per-member fan-out → transmit adapters; DESIGN.md §9)
// and is deliberately ignorant of media formats and radio physics: it
// stores what the upper layers tell it, keyed by client ID.
package registry

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"adaptiveqos/internal/matchindex"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// ctrMatchFallback counts brute-force selector evaluations performed
// when a match cannot go through the inverted index (disabled index or
// a FullScan plan); see matchindex and DESIGN.md §12.
var ctrMatchFallback = metrics.C(metrics.CtrMatchIndexFallback)

// Radio-state attribute names.  The membership layer stores the
// broker's last service assessment of each client in the profile's
// state section under these keys, making signal state semantically
// selectable (`state.sir >= -3`) exactly as the paper's Figure 3
// profiles do.
const (
	StateSIR      = "sir"
	StatePower    = "power"
	StateDistance = "distance"
)

// Registry is the table of client profiles: one lock over a map of
// profile.Managers, each member's profile with its memoized flattened
// view.  All methods are safe for concurrent use.  The lock guards the
// map only: each member's profile sits behind its Manager's own lock,
// which is taken with this one held or with none, never the other way
// round.
//
// Unless constructed with NewWithIndex(false), the registry also holds
// an inverted predicate index over its members (matchindex.Index) so
// MatchIDs' cost scales with the matching subset rather than the
// population.  The index has its own lock, so a match does not block
// FlatSnapshot reads.  Mutations invalidate lazily: they record the
// client in the index's dirty set and the next match re-reads its
// flattened view, skipping the rebuild when the profile generation
// counter is unchanged.
type Registry struct {
	mu      sync.RWMutex
	members map[string]*profile.Manager
	idx     *matchindex.Index // nil when the index is disabled
	// matched is the size of the last indexed match: the next one's
	// result starts at that capacity instead of growing by doubling.
	matched atomic.Int64
}

// New returns an empty registry with the match index enabled.
func New() *Registry { return NewWithIndex(true) }

// NewWithIndex is New with the match index explicitly enabled or
// disabled; disabled, MatchIDs scans every profile brute-force — the
// oracle of the index equivalence harnesses and TestFlatMatchGuard.
func NewWithIndex(indexed bool) *Registry {
	r := &Registry{members: make(map[string]*profile.Manager)}
	if indexed {
		r.idx = matchindex.NewIndex()
	}
	return r
}

// member returns id's manager, or nil when id is not registered.
func (r *Registry) member(id string) *profile.Manager {
	r.mu.RLock()
	m := r.members[id]
	r.mu.RUnlock()
	return m
}

// markDirty has the index re-read id's flattened view on the next
// match; invalidate also drops its postings now.
func (r *Registry) markDirty(id string) {
	if r.idx != nil {
		r.idx.MarkDirty(id)
	}
}

func (r *Registry) invalidate(id string) {
	if r.idx != nil {
		r.idx.Invalidate(id)
	}
}

// Put installs (or replaces) a copy of p, its nil sections filled.  A
// Put may install arbitrary attributes under an unchanged version, so
// the index entry is invalidated outright rather than
// generation-checked.
func (r *Registry) Put(p *profile.Profile) {
	m := profile.ManagerOf(p)
	r.mu.Lock()
	r.members[p.ID] = m
	r.mu.Unlock()
	r.invalidate(p.ID)
}

// Has reports whether a profile is registered for id.
func (r *Registry) Has(id string) bool { return r.member(id) != nil }

// Remove deletes the profile for id, reporting whether it was present.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	_, ok := r.members[id]
	delete(r.members, id)
	r.mu.Unlock()
	r.invalidate(id)
	return ok
}

// IDs returns the registered client IDs in ascending order, so a
// fan-out over them sends in the same order on every run.
func (r *Registry) IDs() []string { return r.appendIDs(nil) }

// appendIDs appends the registered client IDs to dst in ascending order.
func (r *Registry) appendIDs(dst []string) []string {
	n := len(dst)
	r.mu.RLock()
	dst = slices.Grow(dst, len(r.members))
	for id := range r.members {
		dst = append(dst, id)
	}
	r.mu.RUnlock()
	slices.Sort(dst[n:])
	return dst
}

// FlatSnapshot returns the memoized flattened attribute view of the
// profile for id and its version; it is the index's matchindex.Lookup.
// The returned map is shared and immutable by contract: callers MUST
// NOT mutate it.
func (r *Registry) FlatSnapshot(id string) (selector.Attributes, uint64, bool) {
	m := r.member(id)
	if m == nil {
		return nil, 0, false
	}
	flat, ver := m.FlatSnapshot()
	return flat, ver, true
}

// MatchIDs returns the IDs of every registered profile satisfying sel
// (nil: every one), in ascending order, as IDs does: AppendMatchIDs into
// a new list.
func (r *Registry) MatchIDs(sel *selector.Selector) []string { return r.AppendMatchIDs(nil, sel) }

// AppendMatchIDs appends to dst the IDs of every registered profile
// satisfying sel (nil: every one), in ascending order; a caller that
// enumerates for one message at a time hands back the list it used
// last, emptied, and allocates nothing.  With the index enabled the
// selector's index plan, made on its first match and kept on the
// selector (matchindex.PlanSelector), is answered by the index's
// counting match, under the index's lock alone.  Plans the index
// cannot answer (match-all, or a disjunct with no indexable predicate)
// and a disabled index fall back to the brute-force per-profile
// evaluation.  Either way the result is exact.
func (r *Registry) AppendMatchIDs(dst []string, sel *selector.Selector) []string {
	if sel == nil {
		return r.appendIDs(dst)
	}
	n := len(dst)
	if r.idx != nil {
		plan := matchindex.PlanSelector(sel)
		if plan.MatchAll {
			return r.appendIDs(dst)
		}
		if plan.Indexable() {
			dst = slices.Grow(dst, int(r.matched.Load()))
			dst = r.idx.Match(plan, r.FlatSnapshot, dst)
			r.matched.Store(int64(len(dst) - n))
			slices.Sort(dst[n:])
			return dst
		}
		if len(plan.Branches) == 0 && !plan.FullScan {
			return dst // constant-false selector
		}
	}
	r.mu.RLock()
	ctrMatchFallback.Add(uint64(len(r.members)))
	for id, m := range r.members {
		if flat, _ := m.FlatSnapshot(); sel.Matches(flat) {
			dst = append(dst, id)
		}
	}
	r.mu.RUnlock()
	slices.Sort(dst[n:])
	return dst
}

// Update applies fn to a copy of id's profile through its Manager —
// serialized with every other mutation of that profile, the version
// bumped — and reports whether id is registered.  fn must not retain
// the profile or call back into the registry.
func (r *Registry) Update(id string, fn func(*profile.Profile)) bool {
	m := r.member(id)
	if m == nil {
		return false
	}
	m.Update(fn)
	r.markDirty(id)
	return true
}

// Assessment is the per-client radio state the broker folds into the
// registry after assessing a client: received signal quality and the
// power-control geometry it was derived from.  The service tier is
// deliberately absent — it is policy (thresholds over SIR) owned by
// the layer above, not membership state.
type Assessment struct {
	SIRdB    float64
	Power    float64
	Distance float64
}

// UpdateStates installs state attributes on a registered profile
// (Manager.UpdateStates: no version bump when every value is
// unchanged, keeping the memoized flattened view valid).  Only an
// actual change dirties the match index — the per-frame steady state
// (unchanged geometry re-assessed on every delivery) must not grow the
// dirty set the next match has to drain.
func (r *Registry) UpdateStates(id string, kvs []profile.StateKV) error {
	m := r.member(id)
	if m == nil {
		return fmt.Errorf("registry: unknown client %q", id)
	}
	if m.UpdateStates(kvs) {
		r.markDirty(id)
	}
	return nil
}

// PutAssessment folds a client's service assessment into its stored
// profile state.
func (r *Registry) PutAssessment(id string, a Assessment) error {
	return r.UpdateStates(id, []profile.StateKV{
		{Name: StateSIR, V: selector.N(a.SIRdB)},
		{Name: StatePower, V: selector.N(a.Power)},
		{Name: StateDistance, V: selector.N(a.Distance)},
	})
}
