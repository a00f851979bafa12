package wavelet

import (
	"encoding/binary"
	"fmt"
)

// Header inspection.  A relay that holds a coded stream can forward it,
// re-split it or cut it without running the coder, but only after the
// headers have passed the checks the decoders apply — and the decoders
// read their headers through the same two functions, so what Inspect
// accepts is what Decode / DecodeColor accept, by construction.
// Inspecting sizes nothing by what the headers claim, and an accepted
// stream costs no allocation at all.

// Span is the half-open byte range [Start, End) of a stream.
type Span struct{ Start, End int }

// StreamInfo is what the headers of a coded stream, or of a prefix of
// one, say.
type StreamInfo struct {
	// W, H are the raster dimensions (CheckGeometry holds).
	W, H int
	// Color reports the three-plane container; a gray stream is its own
	// single plane.
	Color bool
	// PlanesPresent counts planes with a valid header in the prefix
	// (gray: 1; colour: 1–3, chroma missing from the tail).
	PlanesPresent int
	// Planes[p], for p < PlanesPresent, is the range of plane p's own
	// EZW1 stream, cut where the prefix ends.  Planes[0] is the luma.
	Planes [3]Span
}

// planeHeader is a validated EZW1 header.
type planeHeader struct {
	w, h, levels, maxPlane int
	filter                 Filter
}

// parseHeader reads the EZW1 header at the front of stream.  It is the
// one place a plane's geometry comes off the wire: every table the
// decoder sizes, it sizes from a header this function accepted.
func parseHeader(stream []byte) (planeHeader, bool) {
	if len(stream) < headerLen || [4]byte(stream[:4]) != streamMagic {
		return planeHeader{}, false
	}
	hd := planeHeader{
		w: int(binary.BigEndian.Uint16(stream[4:])),
		h: int(binary.BigEndian.Uint16(stream[6:])),
		// Levels occupy the low bits; bit 7 selects the Haar filter.
		levels:   int(stream[8] &^ 0x80),
		maxPlane: int(stream[9]),
		filter:   Filter53,
	}
	if stream[8]&0x80 != 0 {
		hd.filter = FilterHaar
	}
	if !CheckGeometry(hd.w, hd.h) || hd.levels > 8 || hd.maxPlane > 31 || hd.levels > MaxLevels(hd.w, hd.h) {
		return planeHeader{}, false
	}
	return hd, true
}

// inspectColor walks the colour container.  A plane whose length field
// or header the prefix cuts short — or whose header is not one
// parseHeader accepts — ends the walk: the planes before it stand, and
// with none standing there is no image.  Planes that disagree on size
// are an error, not a truncation.
func inspectColor(stream []byte) (StreamInfo, error) {
	if len(stream) < 8 || [4]byte(stream[:4]) != colorMagic {
		return StreamInfo{}, ErrColorStream
	}
	si := StreamInfo{Color: true}
	off := 4
	for p := 0; p < 3 && len(stream) >= off+4; p++ {
		n := binary.BigEndian.Uint32(stream[off:])
		off += 4
		end := len(stream)
		if uint64(n) < uint64(end-off) {
			end = off + int(n)
		}
		hd, ok := parseHeader(stream[off:end])
		if !ok {
			break
		}
		if p == 0 {
			si.W, si.H = hd.w, hd.h
		} else if hd.w != si.W || hd.h != si.H {
			return StreamInfo{}, fmt.Errorf("%w: plane %d is %dx%d", ErrColorStream, p, hd.w, hd.h)
		}
		si.Planes[p] = Span{off, end}
		si.PlanesPresent++
		off = end
	}
	if si.PlanesPresent == 0 {
		return StreamInfo{}, ErrColorStream
	}
	return si, nil
}

// Inspect validates the headers of a gray or colour stream (told apart
// by magic) without decoding it.  It fails exactly when Decode — for a
// colour container, DecodeColor — would, with the same sentinel error.
func Inspect(stream []byte) (StreamInfo, error) {
	if len(stream) >= 4 && [4]byte(stream[:4]) == colorMagic {
		return inspectColor(stream)
	}
	hd, ok := parseHeader(stream)
	if !ok {
		return StreamInfo{}, ErrStreamHeader
	}
	return StreamInfo{W: hd.w, H: hd.h, PlanesPresent: 1, Planes: [3]Span{{0, len(stream)}}}, nil
}
