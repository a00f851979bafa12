// Package basestation reads a relayed stream's headers and takes the
// decoder as a value: both break the carried-sketch rule.
package basestation

import w "fixture/internal/wavelet"

// Relay holds a stream's headers to the coder's checks.
func Relay(stream []byte) bool { return w.Inspect(stream) }

// Sketch would decode every share it relays.
var Sketch = w.Decode
