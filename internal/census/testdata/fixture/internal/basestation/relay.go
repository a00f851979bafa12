// Package basestation reads a relayed stream's headers and takes the
// decoder as a value: both break the carried-sketch rule.  It also
// hands members to a worker pool, three times, which breaks one-fanout.
package basestation

import (
	"fixture/internal/dispatch"
	w "fixture/internal/wavelet"
)

// Relay holds a stream's headers to the coder's checks.
func Relay(stream []byte) bool { return w.Inspect(stream) }

// Sketch would decode every share it relays.
var Sketch = w.Decode

type segment struct{ pool *dispatch.Pool }

// fanOut hands its members to the pool's shards.
func (s *segment) fanOut(ids []string) error { return s.pool.Each(ids, s.member) }

func (s *segment) member(string) error { return nil }

// broadcast is a second fan-out through the pool.
func (s *segment) broadcast(ids []string) error { return s.pool.Each(ids, s.member) }

// Each takes the pool's method as a value.
func Each(p *dispatch.Pool) func([]string, func(string) error) error { return p.Each }
