// Package slo wires itself into obs from an init, which explicit-wiring
// flags; an init that touches its own package alone keeps the rule.
package slo

import "fixture/internal/obs"

var objectives int

func init() { objectives = 4 }

func init() {
	objectives++
	obs.Hit()
}
