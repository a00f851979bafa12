package profile

import (
	"fmt"
	"slices"
	"sync"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
)

// Fast-path counters: the dispatch path asks for a flattened profile on
// every received frame, so reuse-vs-rebuild is worth instrumenting.
var (
	ctrFlattenReuse = metrics.C(metrics.CtrFlattenReuse)
	ctrFlattenBuild = metrics.C(metrics.CtrFlattenBuild)
)

// Manager owns a client's profile, serializes mutations, assigns
// monotonically increasing versions.
// The profile is dynamic: it changes locally to reflect changes in the
// client (interests, preferences) or in the observed system state.
//
// The manager memoizes the profile's flattened attribute view
// (copy-on-write): Flatten is rebuilt at most once per mutation, not
// once per delivered message.  See FlatSnapshot.
type Manager struct {
	mu   sync.RWMutex
	p    *Profile
	flat selector.Attributes // memoized p.Flatten(); nil = stale
}

// NewManager creates a manager owning a fresh profile for id.
func NewManager(id string) *Manager {
	return &Manager{p: New(id)}
}

// Snapshot returns an immutable deep copy of the current profile.
func (m *Manager) Snapshot() *Profile {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.p.Clone()
}

// FlatSnapshot returns the flattened attribute view of the current
// profile along with its generation (the profile version it reflects).
// The returned map is memoized and shared: it is immutable by contract
// and MUST NOT be mutated by callers.  Mutations through the manager
// leave previously returned snapshots untouched (copy-on-write) and
// cause the next FlatSnapshot to rebuild.
//
// This is the per-frame dispatch path: matching a message selector
// against the local profile costs a map read instead of a deep copy
// plus a rebuild of the whole attribute space.
func (m *Manager) FlatSnapshot() (selector.Attributes, uint64) {
	m.mu.RLock()
	if m.flat != nil {
		flat, gen := m.flat, m.p.Version
		m.mu.RUnlock()
		ctrFlattenReuse.Inc()
		return flat, gen
	}
	m.mu.RUnlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.flat == nil {
		m.flat = m.p.Flatten()
		ctrFlattenBuild.Inc()
	} else {
		ctrFlattenReuse.Inc()
	}
	return m.flat, m.p.Version
}

// Update applies fn to a copy of the profile under the manager's lock,
// bumps the version and installs the result.  fn must not retain the
// profile.
func (m *Manager) Update(fn func(*Profile)) *Profile {
	m.mu.Lock()
	next := m.p.Clone()
	fn(next)
	next.ID = m.p.ID // the identity is not mutable
	next.Version = m.p.Version + 1
	m.p = next
	m.flat = nil // stale; rebuilt lazily (readers keep the old map)
	snap := next.Clone()
	m.mu.Unlock()
	return snap
}

// SetState is a convenience for updating a single state attribute,
// the most common mutation (driven by the SNMP poll loop).
func (m *Manager) SetState(name string, v selector.Value) *Profile {
	return m.Update(func(p *Profile) { p.State[name] = v })
}

// SetPreference updates a single preference attribute.
func (m *Manager) SetPreference(name string, v selector.Value) *Profile {
	return m.Update(func(p *Profile) { p.Preferences[name] = v })
}

// SetInterest updates a single interest attribute.
func (m *Manager) SetInterest(name string, v selector.Value) *Profile {
	return m.Update(func(p *Profile) { p.Interests[name] = v })
}

// Registry is a thread-safe collection of profiles indexed by client
// ID.  The base station uses a Registry to maintain the profiles of all
// wireless clients connected to it and to answer semantic queries on
// their behalf.  Like Manager, the registry memoizes each profile's
// flattened view so relay loops evaluating a selector against every
// client do not rebuild attribute maps per packet.
type Registry struct {
	mu       sync.RWMutex
	profiles map[string]*regEntry
}

// regEntry pairs a stored profile with its lazily built flattened view.
// Both are copy-on-write: mutations install a fresh entry.
type regEntry struct {
	p    *Profile
	flat selector.Attributes // nil until first FlatSnapshot after install
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{profiles: make(map[string]*regEntry)}
}

// Put installs (or replaces) a profile snapshot.  A profile built as a
// literal may leave sections nil; the stored copy gets empty ones, so
// state updates and holders of a Get copy can write into them.
func (r *Registry) Put(p *Profile) {
	c := p.Clone()
	for _, section := range []*selector.Attributes{&c.Interests, &c.Preferences, &c.Capabilities, &c.State} {
		if *section == nil {
			*section = make(selector.Attributes)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.profiles[p.ID] = &regEntry{p: c}
}

// Get returns a copy of the profile for id.
func (r *Registry) Get(id string) (*Profile, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.profiles[id]
	if !ok {
		return nil, false
	}
	return e.p.Clone(), true
}

// Has reports whether a profile is registered for id, copying nothing.
func (r *Registry) Has(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.profiles[id]
	return ok
}

// FlatSnapshot returns the memoized flattened attribute view of the
// profile for id and its version.  The returned map is shared and
// immutable by contract: callers MUST NOT mutate it.  It is rebuilt at
// most once per profile mutation.
func (r *Registry) FlatSnapshot(id string) (selector.Attributes, uint64, bool) {
	r.mu.RLock()
	e, ok := r.profiles[id]
	if ok && e.flat != nil {
		flat, ver := e.flat, e.p.Version
		r.mu.RUnlock()
		ctrFlattenReuse.Inc()
		return flat, ver, true
	}
	r.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok = r.profiles[id]
	if !ok {
		return nil, 0, false
	}
	if e.flat == nil {
		e.flat = e.p.Flatten()
		ctrFlattenBuild.Inc()
	} else {
		ctrFlattenReuse.Inc()
	}
	return e.flat, e.p.Version, true
}

// Remove deletes the profile for id, reporting whether it was present.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.profiles[id]
	delete(r.profiles, id)
	return ok
}

// Len returns the number of registered profiles.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.profiles)
}

// IDs returns the registered client IDs in unspecified order.
func (r *Registry) IDs() []string { return r.AppendIDs(nil) }

// AppendIDs appends the registered client IDs to dst, in unspecified
// order: IDs into a buffer the caller sized (the sharded registry
// gathers every shard into one).
func (r *Registry) AppendIDs(dst []string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dst = slices.Grow(dst, len(r.profiles))
	for id := range r.profiles {
		dst = append(dst, id)
	}
	return dst
}

// MatchIDs returns the IDs of every profile satisfying sel, evaluated
// against the memoized flattened views.  IDs only: the dispatch hot
// path resolves attributes through FlatSnapshot, so matching must not
// pay a profile clone per matching client.
func (r *Registry) MatchIDs(sel *selector.Selector) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id, e := range r.profiles {
		if e.flat == nil {
			e.flat = e.p.Flatten()
			ctrFlattenBuild.Inc()
		} else {
			ctrFlattenReuse.Inc()
		}
		if sel.Matches(e.flat) {
			out = append(out, id)
		}
	}
	return out
}

// StateKV pairs one state attribute with the value to install.
type StateKV struct {
	Name string
	V    selector.Value
}

// UpdateStates mutates several state attributes of a registered
// profile in one lock pass, bumping the version at most once.  Values
// equal to the stored ones are skipped; when every value is unchanged
// the call is a no-op and the memoized flattened view stays valid —
// which keeps the relay fast path (Assess refreshes sir/distance/power
// on every packet) cache-friendly when the radio geometry is
// unchanged.  The returned bool reports
// whether the profile actually changed (and so whether any derived
// view — like the sharded registry's match index — must reindex it).
func (r *Registry) UpdateStates(id string, kvs []StateKV) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.profiles[id]
	if !ok {
		return false, fmt.Errorf("profile: unknown client %q", id)
	}
	changed := false
	for _, kv := range kvs {
		if old, ok := e.p.State[kv.Name]; !ok || !old.Equal(kv.V) {
			changed = true
			break
		}
	}
	if !changed {
		return false, nil
	}
	next := &Profile{
		ID:           e.p.ID,
		Interests:    e.p.Interests,
		Preferences:  e.p.Preferences,
		Capabilities: e.p.Capabilities,
		State:        e.p.State.Clone(),
		Version:      e.p.Version + 1,
	}
	for _, kv := range kvs {
		next.State[kv.Name] = kv.V
	}
	r.profiles[id] = &regEntry{p: next}
	return true, nil
}
