package profile

import (
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
// monotonically increasing versions.  A client holds one for its own
// profile; the base station's registry holds one per wireless member.
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

// ManagerOf creates a manager owning a copy of p.  A profile built as a
// literal may leave sections nil; the copy gets empty ones, so updates
// through the manager can write into them.
func ManagerOf(p *Profile) *Manager {
	c := p.Clone()
	for _, section := range []*selector.Attributes{&c.Interests, &c.Preferences, &c.Capabilities, &c.State} {
		if *section == nil {
			*section = make(selector.Attributes)
		}
	}
	return &Manager{p: c}
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

// StateKV pairs one state attribute with the value to install.
type StateKV struct {
	Name string
	V    selector.Value
}

// UpdateStates sets several state attributes in one lock pass, bumping
// the version at most once, and reports whether the profile changed.
// Values equal to the stored ones are skipped; when every value is
// unchanged the call is a no-op and the memoized flattened view stays
// valid — which keeps the relay fast path (the base station refreshes
// sir/distance/power on every packet) cache-friendly when the radio
// geometry is unchanged.  Only the state section is copied: the others
// are shared with the previous version, which nothing writes in place.
func (m *Manager) UpdateStates(kvs []StateKV) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, kv := range kvs {
		if old, ok := m.p.State[kv.Name]; !ok || !old.Equal(kv.V) {
			changed = true
			break
		}
	}
	if !changed {
		return false
	}
	next := *m.p
	next.State = m.p.State.Clone()
	for _, kv := range kvs {
		next.State[kv.Name] = kv.V
	}
	next.Version++
	m.p = &next
	m.flat = nil
	return true
}
