// Package replay breaks the fidelity rule twice: it does not run on
// internal/core, and it carries a frame codec of its own.
package replay

func encodeData(seq uint32) []byte { return []byte{byte(seq)} }

// Frame encodes one frame.
func Frame(seq uint32) []byte { return encodeData(seq) }
