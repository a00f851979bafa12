package wavelet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Stream header: magic(4) | W uint16 | H uint16 | levels uint8 |
// maxPlane uint8.  Everything after the header is the embedded
// bit-plane code; any prefix decodes.
var streamMagic = [4]byte{'E', 'Z', 'W', '1'}

const headerLen = 4 + 2 + 2 + 1 + 1

// Codec errors.
var (
	ErrStreamHeader = errors.New("wavelet: bad stream header")
	ErrImageSize    = errors.New("wavelet: image dimensions unsupported")
)

// maxSide bounds W and H (uint16 on the wire); maxPixels (scratch.go)
// bounds their product.
const maxSide = 1 << 15

// EncodeBand produces the full embedded stream for the image: a
// coarse-to-fine bit-plane code of its wavelet coefficients.  Decoding
// the whole stream is lossless; decoding any prefix is a progressively
// better approximation.  levels ≤ 0 selects the maximum decomposition;
// the filter choice travels in the stream header, so decoders need no
// side information.  It also returns the raster the whole stream
// decodes to at maxDim (see llLevel) — the LL band the robust sketch is
// drawn from — taken from the encoder's own coefficients, so nothing is
// decoded to get it.
func EncodeBand(im *Image, levels int, filter Filter, maxDim int) ([]byte, *Image, error) {
	stream, c, err := encode(im, levels, filter)
	if err != nil {
		return nil, nil, err
	}
	return stream, c.band(maxDim), nil
}

// encode codes im and returns the stream with the coefficient plane it
// was coded from.
func encode(im *Image, levels int, filter Filter) ([]byte, *Coeffs, error) {
	if !CheckGeometry(im.W, im.H) || len(im.Pix) != im.W*im.H {
		return nil, nil, fmt.Errorf("%w: %dx%d", ErrImageSize, im.W, im.H)
	}
	if filter != Filter53 && filter != FilterHaar {
		return nil, nil, fmt.Errorf("%w: unknown filter %d", ErrImageSize, filter)
	}
	if levels <= 0 {
		levels = MaxLevels(im.W, im.H)
	}
	c := ForwardFilter(im, levels, filter)
	order := scanTable(c.W, c.H, c.Levels)

	// Highest significant bit plane across all coefficients.
	var maxMag int32
	for _, v := range c.Data {
		m := v
		if m < 0 {
			m = -m
		}
		if m > maxMag {
			maxMag = m
		}
	}
	maxPlane := 0
	for t := maxMag; t > 1; t >>= 1 {
		maxPlane++
	}

	// insig holds positions (into order) still insignificant, compacted
	// each plane so zero runs shorten as coefficients become significant.
	sc := getScratch(len(order), -1)
	defer putScratch(sc)
	significant, insig, refine := sc.significant, sc.insig, sc.refine
	w := &bitWriter{buf: sc.code}

	for plane := maxPlane; plane >= 0; plane-- {
		t := int32(1) << uint(plane)

		// Refinement pass: one bit (bit `plane`) per previously
		// significant coefficient.
		for _, pos := range refine {
			mag := c.Data[order[pos]]
			if mag < 0 {
				mag = -mag
			}
			w.writeBit(int(mag >> uint(plane) & 1))
		}

		// Significance pass with gamma-coded zero runs.
		newSig := refine[len(refine):]
		pos := 0
		for pos < len(insig) {
			// Find the next coefficient crossing the threshold.
			q := pos
			for q < len(insig) {
				mag := c.Data[order[insig[q]]]
				if mag < 0 {
					mag = -mag
				}
				if mag >= t {
					break
				}
				q++
			}
			if q == len(insig) {
				w.writeGamma(uint32(len(insig) - pos + 1)) // run to end
				break
			}
			w.writeGamma(uint32(q - pos + 1))
			if c.Data[order[insig[q]]] < 0 {
				w.writeBit(1)
			} else {
				w.writeBit(0)
			}
			significant[insig[q]] = true
			newSig = append(newSig, insig[q])
			pos = q + 1
		}
		refine = append(refine, newSig...)

		// Compact the insignificant list.
		keep := insig[:0]
		for _, p := range insig {
			if !significant[p] {
				keep = append(keep, p)
			}
		}
		insig = keep
	}
	code := w.bytes()
	sc.code = code[:0] // keep what the writer grew

	// Only the stream escapes: header, then the code at its exact size.
	stream := make([]byte, headerLen, headerLen+len(code))
	copy(stream, streamMagic[:])
	binary.BigEndian.PutUint16(stream[4:], uint16(im.W))
	binary.BigEndian.PutUint16(stream[6:], uint16(im.H))
	// Levels occupy the low nibble; bit 7 selects the Haar filter.
	stream[8] = byte(c.Levels)
	if filter == FilterHaar {
		stream[8] |= 0x80
	}
	stream[9] = byte(maxPlane)
	return append(stream, code...), c, nil
}

// DecodeResult is a progressive decode outcome.
type DecodeResult struct {
	// Image is the reconstruction (clamped to 8-bit range).
	Image *Image
	// BitsUsed counts code bits actually consumed (excluding header).
	BitsUsed int
	// Lossless reports whether the full stream was present (bit plane 0
	// completed), making the reconstruction exact.
	Lossless bool
	// PlanesDecoded counts fully decoded bit planes.
	PlanesDecoded int
}

// Decode reconstructs an image from a (possibly truncated) prefix of
// an EncodeBand stream, clamping pixels to the 8-bit display range.  At
// minimum the header must be present.
func Decode(stream []byte) (*DecodeResult, error) {
	return decode(stream, true, 0)
}

// DecodeSigned is Decode without the 8-bit clamp, for planes whose
// sample range is signed (the chroma planes of a color stream).
func DecodeSigned(stream []byte) (*DecodeResult, error) {
	return decode(stream, false, 0)
}

// llLevel returns how many levels of a w×h, levels-deep decomposition
// to leave uninverted so that the LL band left fits maxDim on both
// sides — the finest such band, or the deepest the stream has — and
// that band's size.  maxDim ≤ 0 asks for the full plane.
func llLevel(w, h, levels, maxDim int) (skip, sw, sh int) {
	sw, sh = w, h
	for maxDim > 0 && skip < levels && (sw > maxDim || sh > maxDim) {
		sw, sh = (sw+1)/2, (sh+1)/2
		skip++
	}
	return skip, sw, sh
}

// band is what decode reconstructs from the complete stream of c at
// maxDim: the top-left corner llLevel picks, which holds that LL band
// and the detail bands of every level deeper than it, inverted and
// clamped as decode inverts and clamps.  c is left as it is.
func (c *Coeffs) band(maxDim int) *Image {
	skip, sw, sh := llLevel(c.W, c.H, c.Levels, maxDim)
	b := &Coeffs{W: sw, H: sh, Levels: c.Levels - skip, Filter: c.Filter, Data: make([]int32, sw*sh)}
	for y := range sh {
		copy(b.Data[y*sw:(y+1)*sw], c.Data[y*c.W:y*c.W+sw])
	}
	im := b.invert()
	im.Clamp8()
	return im
}

// decode reconstructs the LL band llLevel picks for maxDim; with
// maxDim ≤ 0 that is the whole plane.  The band at level k, with the
// detail bands of every level deeper than k, is the top-left sw×sh
// corner of the Mallat layout and the first sw·sh entries of the scan
// order, so the decoder keeps magnitudes for that scan prefix only and
// inverts the levels below k.  The bit-plane code is plane-major, so
// the parse still reads every bit of the prefix it was given.
func decode(stream []byte, clamp bool, maxDim int) (*DecodeResult, error) {
	hd, ok := parseHeader(stream)
	if !ok {
		return nil, ErrStreamHeader
	}
	w, h, levels, maxPlane := hd.w, hd.h, hd.levels, hd.maxPlane
	skip, sw, sh := llLevel(w, h, levels, maxDim)
	kept := sw * sh

	c := &Coeffs{W: sw, H: sh, Levels: levels - skip, Filter: hd.filter, Data: make([]int32, kept)}
	order := scanTable(w, h, levels)
	r := &bitReader{buf: stream[headerLen:]}

	sc := getScratch(len(order), kept)
	defer putScratch(sc)
	mag, sign, significant, insig, refine := sc.mag, sc.sign, sc.significant, sc.insig, sc.refine

	planesDone := 0
	lastPlane := maxPlane
	truncated := false

decode:
	for plane := maxPlane; plane >= 0; plane-- {
		lastPlane = plane
		t := int32(1) << uint(plane)

		for _, pos := range refine {
			b, err := r.readBit()
			if err != nil {
				truncated = true
				break decode
			}
			if b == 1 && int(pos) < kept {
				mag[pos] |= t
			}
		}

		newSig := refine[len(refine):]
		pos := 0
		for pos < len(insig) {
			run, err := r.readGamma()
			if err != nil {
				truncated = true
				break decode
			}
			pos += int(run) - 1
			if pos >= len(insig) {
				break // run to end of pass
			}
			sb, err := r.readBit()
			if err != nil {
				truncated = true
				break decode
			}
			p := insig[pos]
			if int(p) < kept {
				mag[p] = t
				if sb == 1 {
					sign[p] = -1
				} else {
					sign[p] = 1
				}
			}
			significant[p] = true
			newSig = append(newSig, p)
			pos++
		}
		refine = append(refine, newSig...)

		keep := insig[:0]
		for _, p := range insig {
			if !significant[p] {
				keep = append(keep, p)
			}
		}
		insig = keep
		planesDone++
	}

	// Reconstruct: significant coefficients get the midpoint of their
	// remaining uncertainty interval unless the stream was complete.
	half := int32(0)
	if truncated || lastPlane > 0 {
		half = (int32(1) << uint(lastPlane)) >> 1
	}
	for i, p := range order[:kept] {
		if sign[i] == 0 {
			continue
		}
		v := mag[i] + half
		if sign[i] < 0 {
			v = -v
		}
		if sw != w {
			p = p/int32(w)*int32(sw) + p%int32(w)
		}
		c.Data[p] = v
	}

	im := c.invert() // c.Data is ours: it becomes the raster
	if clamp {
		im.Clamp8()
	}
	return &DecodeResult{
		Image:         im,
		BitsUsed:      r.pos,
		Lossless:      !truncated && lastPlane == 0,
		PlanesDecoded: planesDone,
	}, nil
}
