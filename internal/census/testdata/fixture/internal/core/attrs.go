package core

import "fixture/internal/message"

// Sum reads a message's attributes the three ways the rule flags, and
// sets and stores into them the two ways it lets stand.
func Sum(m *message.Message) int {
	m.Attrs = map[string]int{"a": 1}
	m.Attrs["b"] = 2
	n := len(m.Attrs) + m.Attrs["a"]
	for range m.Attrs {
		n++
	}
	return n
}
