// Package message holds the fixture's message, whose Attrs a received
// copy leaves nil.
package message

// A Message carries attributes.
type Message struct{ Attrs map[string]int }

// Count reads the field inside its own package, which the rule allows.
func (m *Message) Count() int { return len(m.Attrs) }
