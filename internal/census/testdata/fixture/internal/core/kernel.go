// Package core holds the fixture's kernels.
package core

import c "fixture/internal/clock"

// A Kernel takes packets and time.  This comment names go, select,
// chan and <-, and breaks no rule by it.
type Kernel struct{ n int }

// Start breaks kernel purity five ways.
func (k *Kernel) Start(out chan<- int) {
	go k.Poll()
	out <- k.n
	c.Wall()
}

// Poll is pure.
func (k *Kernel) Poll() { k.n++ }
