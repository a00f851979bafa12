// Package wavelet is the coder the base station may not read a stream
// with.
package wavelet

// Inspect checks a stream's headers.
func Inspect(stream []byte) bool { return len(stream) > 0 }

// Decode reconstructs a stream.
func Decode(stream []byte) int { return len(stream) }
