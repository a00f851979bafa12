// Package core holds the fixture's kernels.
package core

import c "fixture/internal/clock"

// A Kernel takes packets and time.  Its shell may go, select, chan and
// <- as it likes; this comment mentions them and breaks no rule.
type Kernel struct{ n int }

// Start breaks kernel purity five ways.
func (k *Kernel) Start(out chan<- int) {
	go k.Poll()
	out <- k.n
	c.Or(nil)
}

// Poll is pure.
func (k *Kernel) Poll() { k.n++ }
