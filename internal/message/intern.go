package message

// Interner hands out one shared string for byte sequences a receiver
// sees again and again: sender IDs, attribute names, short attribute
// values.  A stream of chat lines spells "app", "chat", "media", "text"
// and its sender on every frame; interned, materialising a frame
// allocates none of them.
//
// The table is a fixed array, internSets × internWays entries of at
// most maxInternLen bytes each, so what it holds is bounded whatever
// arrives: a peer minting fresh names evicts entries (and costs the
// allocation each string would have cost anyway) but cannot grow it.
// An Interner has a single owner — a kernel, a node's segment — and is
// not safe for concurrent use; the strings it returns are ordinary
// immutable strings and may go anywhere.  The zero value is ready, and
// a nil *Interner interns nothing.
type Interner struct {
	sets   [internSets][internWays]string
	victim uint8 // the way a full set overwrites next, round-robin
}

const (
	internSets = 128
	internWays = 4
	// maxInternLen is the longest string worth keeping: identifiers and
	// enumerated values are short, free text is long and rarely repeats.
	maxInternLen = 32
)

// String returns string(b), shared with earlier calls when the table
// still holds it.
func (in *Interner) String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if in == nil || len(b) > maxInternLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	set := &in.sets[h%internSets]
	free := -1
	for i, s := range set {
		if s == string(b) { // compared in place, no conversion
			return s
		}
		if s == "" && free < 0 {
			free = i
		}
	}
	if free < 0 {
		free = int(in.victim % internWays)
		in.victim++
	}
	set[free] = string(b)
	return set[free]
}
