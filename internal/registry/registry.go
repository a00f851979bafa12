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
	"slices"
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
// an independent profile.Registry (with its own lock and memoized
// flattened views); a client's shard is fixed by the FNV-1a hash of
// its ID.  All methods are safe for concurrent use.
//
// Unless constructed with NewWithIndex(shards, false), each profile
// shard is paired with an inverted predicate index shard
// (matchindex.Shard, routed by the same hash) so MatchIDs'
// cost scales with the matching subset rather than the population.
// Mutations invalidate lazily: they record the client in the paired
// index shard's dirty set and the next match re-reads its flattened
// view, skipping the rebuild when the profile generation counter is
// unchanged.
type Registry struct {
	shards []*profile.Registry
	idx    []*matchindex.Shard // nil when the index is disabled
	mask   uint32
	// matched is the size of the last indexed match: the next one's
	// result starts at that capacity instead of growing by doubling.
	matched atomic.Int64
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
	r := &Registry{shards: make([]*profile.Registry, n), mask: uint32(n - 1)}
	for i := range r.shards {
		r.shards[i] = profile.NewRegistry()
	}
	if indexed {
		r.idx = make([]*matchindex.Shard, n)
		for i := range r.idx {
			r.idx[i] = matchindex.NewShard()
		}
	}
	return r
}

func (r *Registry) shard(id string) *profile.Registry {
	return r.shards[fnv32a(id)&r.mask]
}

// idxShard returns the index shard paired with id's profile shard, or
// nil when the index is disabled.
func (r *Registry) idxShard(id string) *matchindex.Shard {
	if r.idx == nil {
		return nil
	}
	return r.idx[fnv32a(id)&r.mask]
}

// Put installs (or replaces) a profile snapshot.  A Put may install
// arbitrary attributes under an unchanged version, so the index entry
// is invalidated outright rather than generation-checked.
func (r *Registry) Put(p *profile.Profile) {
	r.shard(p.ID).Put(p)
	if ix := r.idxShard(p.ID); ix != nil {
		ix.Invalidate(p.ID)
	}
}

// Get returns a copy of the profile for id.
func (r *Registry) Get(id string) (*profile.Profile, bool) {
	return r.shard(id).Get(id)
}

// Has reports whether a profile is registered for id: a membership
// test that, unlike Get, copies no profile.
func (r *Registry) Has(id string) bool {
	return r.shard(id).Has(id)
}

// Remove deletes the profile for id, reporting whether it was present.
func (r *Registry) Remove(id string) bool {
	ok := r.shard(id).Remove(id)
	if ix := r.idxShard(id); ix != nil {
		ix.Invalidate(id)
	}
	return ok
}

// Len returns the number of registered profiles across all shards.
func (r *Registry) Len() int {
	n := 0
	for _, s := range r.shards {
		n += s.Len()
	}
	return n
}

// IDs returns the registered client IDs in ascending order, so a
// fan-out over them sends in the same order on every run.
func (r *Registry) IDs() []string {
	ids := make([]string, 0, r.Len())
	for _, s := range r.shards {
		ids = s.AppendIDs(ids)
	}
	slices.Sort(ids)
	return ids
}

// FlatSnapshot returns the memoized flattened attribute view of the
// profile for id and its version.  The returned map is shared and
// immutable by contract: callers MUST NOT mutate it.
func (r *Registry) FlatSnapshot(id string) (selector.Attributes, uint64, bool) {
	return r.shard(id).FlatSnapshot(id)
}

// MatchIDs returns the IDs of every registered profile satisfying sel,
// in ascending order, as IDs does.  With the index enabled the selector is
// decomposed into an index plan and answered by each shard's counting
// match; plans the index cannot answer (match-all, or a disjunct with
// no indexable predicate) and disabled indexes fall back to the
// brute-force per-profile evaluation.  Either way the result is exact.
func (r *Registry) MatchIDs(sel *selector.Selector) []string {
	if sel == nil {
		return r.IDs()
	}
	if r.idx != nil {
		plan := matchindex.PlanSelector(sel)
		if plan.MatchAll {
			return r.IDs()
		}
		if plan.Indexable() {
			out := make([]string, 0, r.matched.Load())
			for i, s := range r.shards {
				out = r.idx[i].Match(plan, s.FlatSnapshot, out)
			}
			r.matched.Store(int64(len(out)))
			slices.Sort(out)
			return out
		}
		if len(plan.Branches) == 0 && !plan.FullScan {
			return nil // constant-false selector
		}
	}
	ctrMatchFallback.Add(uint64(r.Len()))
	var out []string
	for _, s := range r.shards {
		out = append(out, s.MatchIDs(sel)...)
	}
	slices.Sort(out)
	return out
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

// UpdateStates installs state attributes on a registered profile (one
// lock pass; no version bump when every value is unchanged, keeping the
// memoized flattened view valid).  Only an actual change dirties the
// match index — the per-frame steady state (unchanged geometry
// re-assessed on every delivery) must not grow the dirty set the next
// match has to drain.
func (r *Registry) UpdateStates(id string, kvs []profile.StateKV) error {
	changed, err := r.shard(id).UpdateStates(id, kvs)
	if changed {
		if ix := r.idxShard(id); ix != nil {
			ix.MarkDirty(id)
		}
	}
	return err
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
