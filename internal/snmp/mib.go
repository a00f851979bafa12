package snmp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Object is one managed object instance in a MIB: a Get instrumentation
// routine and an optional Set routine.
type Object struct {
	// Get returns the object's current value.  Required.
	Get func() Value
	// Set applies a new value; nil marks the object read-only.
	Set func(Value) error
}

// MIB errors.
var (
	ErrNoObject    = errors.New("snmp: no such object")
	ErrNotWritable = errors.New("snmp: object is not writable")
)

// MIB is a thread-safe management information base: a sorted table of
// OID-addressed object instances with instrumentation routines.
// Routers and switches come with standard agents; hosts run the
// specialized embedded extension agent, which registers its
// instrumentation here.
type MIB struct {
	mu      sync.RWMutex
	objects map[string]Object // key: the OID's BER content (appendOID)
	order   []OID             // sorted registration index
	dirty   bool
}

// NewMIB returns an empty MIB.
func NewMIB() *MIB {
	return &MIB{objects: make(map[string]Object)}
}

// Register installs (or replaces) the object instance at oid.
func (m *MIB) Register(oid OID, obj Object) error {
	if obj.Get == nil {
		return fmt.Errorf("snmp: object %s registered without Get", oid)
	}
	key, err := appendOID(nil, oid)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrBadOID, oid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.objects[string(key)]; !exists {
		m.order = append(m.order, oid.Clone())
		m.dirty = true
	}
	m.objects[string(key)] = obj
	return nil
}

// RegisterScalar installs a read-only instrumentation routine at
// oid.0 (the conventional scalar instance suffix).
func (m *MIB) RegisterScalar(oid OID, get func() Value) error {
	return m.Register(oid.Append(0), Object{Get: get})
}

func (m *MIB) sortLocked() {
	if m.dirty {
		sort.Slice(m.order, func(i, j int) bool { return m.order[i].Compare(m.order[j]) < 0 })
		m.dirty = false
	}
}

// lookup finds the object at exactly oid.  Its key is encoded on the
// stack, so a lookup allocates nothing.
func (m *MIB) lookup(oid OID) (Object, bool) {
	var buf [64]byte
	key, err := appendOID(buf[:0], oid)
	if err != nil {
		return Object{}, false
	}
	m.mu.RLock()
	obj, ok := m.objects[string(key)]
	m.mu.RUnlock()
	return obj, ok
}

// Set writes the value at exactly oid.
func (m *MIB) Set(oid OID, v Value) error {
	obj, ok := m.lookup(oid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoObject, oid)
	}
	if obj.Set == nil {
		return fmt.Errorf("%w: %s", ErrNotWritable, oid)
	}
	return obj.Set(v)
}

// Next returns the first registered OID strictly after oid, in
// lexicographic order, together with its value.  ok is false at the
// end of the MIB view.
func (m *MIB) Next(oid OID) (OID, Value, bool) {
	m.mu.Lock()
	m.sortLocked()
	// Binary search for the first entry > oid.
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].Compare(oid) > 0 })
	if i >= len(m.order) {
		m.mu.Unlock()
		return nil, Value{}, false
	}
	next := m.order[i].Clone()
	var buf [64]byte
	key, _ := appendOID(buf[:0], next)
	obj := m.objects[string(key)]
	m.mu.Unlock()
	return next, obj.Get(), true
}
