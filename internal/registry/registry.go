// Package registry is the broker's membership layer: it owns the
// client profiles, their memoized flattened attribute views and the
// per-client radio state (the service assessments the base station
// folds back into each profile) behind N hash-sharded locks, so that
// concurrent joins, departures, assessments and per-frame snapshot
// reads contend only within a shard instead of on one broker-wide
// mutex.  It is the first of the three broker layers (registry →
// dispatch pipeline → transmit adapters; DESIGN.md §9) and is
// deliberately ignorant of media formats and radio physics: it stores
// what the upper layers tell it, keyed by client ID.
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

// DefaultShards is the shard count used when Config.Shards is zero.
// Sixteen keeps per-shard population small at the paper's cell sizes
// while still winning at 512 clients (see BenchmarkRegistryContention).
const DefaultShards = 16

// fnv32a hashes a client ID for shard routing.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Registry is a sharded collection of client profiles.  Each shard is
// one lock over a map of profile.Managers — each member's profile with
// its memoized flattened view — and a client's shard is fixed by the
// FNV-1a hash of its ID.  All methods are safe for concurrent use.
//
// Unless constructed with NewWithIndex(shards, false), each shard
// also holds an inverted predicate index over its members
// (matchindex.Shard) so MatchIDs' cost scales with the matching subset
// rather than the population.  Mutations invalidate lazily: they
// record the client in the index shard's dirty set and the next match
// re-reads its flattened view, skipping the rebuild when the profile
// generation counter is unchanged.
type Registry struct {
	shards []shard
	mask   uint32
	// matched is the size of the last indexed match: the next one's
	// result starts at that capacity instead of growing by doubling.
	matched atomic.Int64
}

// shard is one lock over the members whose ID hashes to it.  The lock
// guards the map only: each member's profile sits behind its Manager's
// own lock, which is taken with this one held or with none, never the
// other way round.
type shard struct {
	mu      sync.RWMutex
	members map[string]*profile.Manager
	idx     *matchindex.Shard // nil when the index is disabled
}

// New returns a registry with the given shard count, rounded up to a
// power of two; shards <= 0 selects DefaultShards.  The match index is
// enabled.
func New(shards int) *Registry { return NewWithIndex(shards, true) }

// NewWithIndex is New with the match index explicitly enabled or
// disabled; disabled, MatchIDs scans every profile brute-force — the
// oracle of the index equivalence harnesses and TestFlatMatchGuard.
func NewWithIndex(shards int, indexed bool) *Registry {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &Registry{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range r.shards {
		r.shards[i].members = make(map[string]*profile.Manager)
		if indexed {
			r.shards[i].idx = matchindex.NewShard()
		}
	}
	return r
}

func (r *Registry) shard(id string) *shard {
	return &r.shards[fnv32a(id)&r.mask]
}

// member returns id's manager, or nil when id is not registered.
func (s *shard) member(id string) *profile.Manager {
	s.mu.RLock()
	m := s.members[id]
	s.mu.RUnlock()
	return m
}

// FlatSnapshot is the shard's matchindex.Lookup: id's memoized
// flattened view and its version.
func (s *shard) FlatSnapshot(id string) (selector.Attributes, uint64, bool) {
	m := s.member(id)
	if m == nil {
		return nil, 0, false
	}
	flat, ver := m.FlatSnapshot()
	return flat, ver, true
}

// markDirty has the index re-read id's flattened view on the next
// match; invalidate also drops its postings now.
func (s *shard) markDirty(id string) {
	if s.idx != nil {
		s.idx.MarkDirty(id)
	}
}

func (s *shard) invalidate(id string) {
	if s.idx != nil {
		s.idx.Invalidate(id)
	}
}

// Put installs (or replaces) a copy of p, its nil sections filled.  A
// Put may install arbitrary attributes under an unchanged version, so
// the index entry is invalidated outright rather than
// generation-checked.
func (r *Registry) Put(p *profile.Profile) {
	s, m := r.shard(p.ID), profile.ManagerOf(p)
	s.mu.Lock()
	s.members[p.ID] = m
	s.mu.Unlock()
	s.invalidate(p.ID)
}

// Has reports whether a profile is registered for id.
func (r *Registry) Has(id string) bool {
	return r.shard(id).member(id) != nil
}

// Remove deletes the profile for id, reporting whether it was present.
func (r *Registry) Remove(id string) bool {
	s := r.shard(id)
	s.mu.Lock()
	_, ok := s.members[id]
	delete(s.members, id)
	s.mu.Unlock()
	s.invalidate(id)
	return ok
}

// Len returns the number of registered profiles across all shards.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.members)
		s.mu.RUnlock()
	}
	return n
}

// IDs returns the registered client IDs in ascending order, so a
// fan-out over them sends in the same order on every run.
func (r *Registry) IDs() []string { return r.appendIDs(nil) }

// appendIDs appends the registered client IDs to dst in ascending order.
func (r *Registry) appendIDs(dst []string) []string {
	n := len(dst)
	dst = slices.Grow(dst, r.Len())
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for id := range s.members {
			dst = append(dst, id)
		}
		s.mu.RUnlock()
	}
	slices.Sort(dst[n:])
	return dst
}

// FlatSnapshot returns the memoized flattened attribute view of the
// profile for id and its version.  The returned map is shared and
// immutable by contract: callers MUST NOT mutate it.
func (r *Registry) FlatSnapshot(id string) (selector.Attributes, uint64, bool) {
	return r.shard(id).FlatSnapshot(id)
}

// MatchIDs returns the IDs of every registered profile satisfying sel
// (nil: every one), in ascending order, as IDs does: AppendMatchIDs into
// a new list.
func (r *Registry) MatchIDs(sel *selector.Selector) []string { return r.AppendMatchIDs(nil, sel) }

// AppendMatchIDs appends to dst the IDs of every registered profile
// satisfying sel (nil: every one), in ascending order; a caller that
// enumerates for one message at a time hands back the list it used
// last, emptied, and allocates nothing.  With the index enabled the
// selector is decomposed into an index plan and answered by each
// shard's counting match; plans the index cannot answer (match-all, or
// a disjunct with no indexable predicate) and disabled indexes fall
// back to the brute-force per-profile evaluation.  Either way the
// result is exact.
func (r *Registry) AppendMatchIDs(dst []string, sel *selector.Selector) []string {
	if sel == nil {
		return r.appendIDs(dst)
	}
	n := len(dst)
	if r.shards[0].idx != nil {
		plan := matchindex.PlanSelector(sel)
		if plan.MatchAll {
			return r.appendIDs(dst)
		}
		if plan.Indexable() {
			dst = slices.Grow(dst, int(r.matched.Load()))
			for i := range r.shards {
				s := &r.shards[i]
				dst = s.idx.Match(plan, s.FlatSnapshot, dst)
			}
			r.matched.Store(int64(len(dst) - n))
			slices.Sort(dst[n:])
			return dst
		}
		if len(plan.Branches) == 0 && !plan.FullScan {
			return dst // constant-false selector
		}
	}
	ctrMatchFallback.Add(uint64(r.Len()))
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for id, m := range s.members {
			if flat, _ := m.FlatSnapshot(); sel.Matches(flat) {
				dst = append(dst, id)
			}
		}
		s.mu.RUnlock()
	}
	slices.Sort(dst[n:])
	return dst
}

// Update applies fn to a copy of id's profile through its Manager —
// serialized with every other mutation of that profile, the version
// bumped — and reports whether id is registered.  fn must not retain
// the profile or call back into the registry.
func (r *Registry) Update(id string, fn func(*profile.Profile)) bool {
	s := r.shard(id)
	m := s.member(id)
	if m == nil {
		return false
	}
	m.Update(fn)
	s.markDirty(id)
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
	s := r.shard(id)
	m := s.member(id)
	if m == nil {
		return fmt.Errorf("registry: unknown client %q", id)
	}
	if m.UpdateStates(kvs) {
		s.markDirty(id)
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
