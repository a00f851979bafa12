package core

import "fixture/internal/message"

// Sum uses a message's attribute map every way the rule flags: it sets
// and stores into it, reads it by len, index and range, and names it in
// a literal.
func Sum(m *message.Message) int {
	m.Attrs = map[string]int{"a": 1}
	m.Attrs["b"] = 2
	n := len(m.Attrs) + m.Attrs["a"]
	for range m.Attrs {
		n++
	}
	return n + message.Count(message.Message{Attrs: nil})
}
