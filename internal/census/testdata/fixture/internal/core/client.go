package core

import "fixture/internal/clock"

// Run drives a node itself, which passive-nodes flags three times.
func Run(c clock.Clock) {
	go func() {
		select {
		case <-c.NewTicker(0):
		}
	}()
}
