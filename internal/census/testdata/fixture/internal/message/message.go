// Package message holds the fixture's message, whose Attrs only its own
// package may name.
package message

// A Message carries attributes.
type Message struct{ Attrs map[string]int }

// Count reads the field inside its own package, which the rule allows.
func Count(m Message) int { return len(m.Attrs) }
