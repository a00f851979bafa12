// Package profile implements client profiles and QoS contracts.
//
// A profile is the locally maintained description of a client: its
// interests, preferences, capabilities, and the current system/network
// state it observes.  All messaging in the framework is addressed to
// profiles rather than names: a message's semantic selector is evaluated
// against each client's flattened profile attributes, so the set of
// receivers is determined only at run time.
//
// A QoS contract is the set of user-specified constraints over system
// and application parameters that the inference engine must keep
// satisfied, degrading information quality (gradual gradation) or
// switching modality when it cannot.
package profile

import (
	"fmt"

	"adaptiveqos/internal/selector"
)

// Section names under which profile attributes are flattened.  A
// capability "transform.MPEG2.JPEG" appears to selectors as
// "cap.transform.MPEG2.JPEG".
const (
	SectionInterest   = "interest"
	SectionPreference = "pref"
	SectionCapability = "cap"
	SectionState      = "state"
)

// Profile describes a collaborating client.  The zero value is not
// usable; create profiles with New.  Profile values handed out by
// Manager are snapshots and safe to read without synchronization.
type Profile struct {
	// ID is a stable identifier used for diagnostics and unicast relay
	// bookkeeping.  It never participates in semantic matching.
	ID string

	// Interests describe what the client wants to receive
	// (e.g. media, topics, maximum sizes).
	Interests selector.Attributes

	// Preferences describe how the client wants information delivered
	// (e.g. preferred modality, color/monochrome).
	Preferences selector.Attributes

	// Capabilities describe what the client can process, including
	// transformation capabilities (e.g. decode formats, display depth).
	Capabilities selector.Attributes

	// State carries current system and network conditions observed at
	// the client (CPU load, page faults, bandwidth, signal strength).
	State selector.Attributes

	// Version increments on every mutation through a Manager.
	Version uint64
}

// New creates an empty profile for the given client ID.
func New(id string) *Profile {
	return &Profile{
		ID:           id,
		Interests:    make(selector.Attributes),
		Preferences:  make(selector.Attributes),
		Capabilities: make(selector.Attributes),
		State:        make(selector.Attributes),
	}
}

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	return &Profile{
		ID:           p.ID,
		Interests:    p.Interests.Clone(),
		Preferences:  p.Preferences.Clone(),
		Capabilities: p.Capabilities.Clone(),
		State:        p.State.Clone(),
		Version:      p.Version,
	}
}

// Flatten merges the profile sections into a single attribute space for
// selector evaluation.  Section attributes are exposed both under their
// prefixed names ("state.cpu-load") and, for interests and preferences,
// under their bare names, which is what message selectors written
// against the shared attribute vocabulary match on.
func (p *Profile) Flatten() selector.Attributes {
	out := make(selector.Attributes,
		2*len(p.Interests)+2*len(p.Preferences)+len(p.Capabilities)+len(p.State)+1)
	for k, v := range p.Interests {
		out[k] = v
		out[SectionInterest+"."+k] = v
	}
	for k, v := range p.Preferences {
		out[k] = v
		out[SectionPreference+"."+k] = v
	}
	for k, v := range p.Capabilities {
		out[SectionCapability+"."+k] = v
	}
	for k, v := range p.State {
		out[SectionState+"."+k] = v
	}
	out["client"] = selector.S(p.ID)
	return out
}

// Matches reports whether the selector is satisfied by this profile.
func (p *Profile) Matches(sel *selector.Selector) bool {
	return sel.Matches(p.Flatten())
}

// String renders the profile compactly for logs.
func (p *Profile) String() string {
	return fmt.Sprintf("profile(%s v%d interests=%s prefs=%s caps=%s state=%s)",
		p.ID, p.Version, p.Interests, p.Preferences, p.Capabilities, p.State)
}
