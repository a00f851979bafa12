// Package basestation checks a collected stream, which is allowed, and
// takes the decoder as a value, which breaks the carried-sketch rule.
package basestation

import w "fixture/internal/wavelet"

// Relay holds a stream's headers to the coder's checks.
func Relay(stream []byte) bool { return w.Inspect(stream) }

// Sketch would decode every share it relays.
var Sketch = w.Decode
