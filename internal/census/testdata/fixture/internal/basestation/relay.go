// Package basestation reads a relayed stream's headers and takes the
// decoder as a value: both break the carried-sketch rule.  It also fans
// out past its one fan-out, which breaks one-fanout.
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

// fanOut is the station's one fan-out, where the rule allows Each.
func (s *segment) fanOut(ids []string) error { return s.pool.Each(ids, s.member) }

func (s *segment) member(string) error { return nil }

// broadcast is a second fan-out in the same file.
func (s *segment) broadcast(ids []string) error { return s.pool.Each(ids, s.member) }

// Each is a method value of the pool, taken outside fanOut.
func Each(p *dispatch.Pool) func([]string, func(string) error) error { return p.Each }
