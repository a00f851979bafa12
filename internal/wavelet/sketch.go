package wavelet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The robust sketch: a tiny edge map extracted from the image that
// preserves the essential structure for collaboration while requiring
// on the order of 2000× less data than the original, with an attached
// verbal description so minimal-capability clients (text-only wireless
// participants) can still follow the session.

// SketchMaxDim is the maximum sketch raster dimension.  The media path
// asks EncodeBand for the LL band that fits it, so the raster reaching
// ExtractSketch is already that small; ExtractSketch box-averages only
// what is still larger (a plane coded with too few levels, or a raster
// handed in directly).
const SketchMaxDim = 32

// Sketch is the compact structural summary of an image.
type Sketch struct {
	// W, H are the sketch raster dimensions.
	W, H int
	// Edges is a W×H bitmap of detected edges (row-major).
	Edges []bool
	// Description is the verbal tag carried with the sketch.
	Description string
}

// Sketch errors.
var (
	ErrSketchFormat = errors.New("wavelet: malformed sketch")
)

// ExtractSketch downsamples the image, runs a Sobel edge detector and
// thresholds the gradient magnitude, producing the base sketch layer.
func ExtractSketch(im *Image, description string) *Sketch {
	// Downsample by box averaging to ≤ SketchMaxDim per side.
	factor := 1
	for (im.W+factor-1)/factor > SketchMaxDim || (im.H+factor-1)/factor > SketchMaxDim {
		factor++
	}
	sw := (im.W + factor - 1) / factor
	sh := (im.H + factor - 1) / factor
	small := make([]int32, sw*sh)
	for sy := 0; sy < sh; sy++ {
		for sx := 0; sx < sw; sx++ {
			var sum, n int32
			for y := sy * factor; y < (sy+1)*factor && y < im.H; y++ {
				for x := sx * factor; x < (sx+1)*factor && x < im.W; x++ {
					sum += im.At(x, y)
					n++
				}
			}
			small[sy*sw+sx] = sum / n
		}
	}

	// Sobel gradient magnitude with border clamp.
	at := func(x, y int) int32 {
		if x < 0 {
			x = 0
		}
		if x >= sw {
			x = sw - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= sh {
			y = sh - 1
		}
		return small[y*sw+x]
	}
	grad := make([]int32, sw*sh)
	var maxGrad int32
	for y := 0; y < sh; y++ {
		for x := 0; x < sw; x++ {
			gx := -at(x-1, y-1) - 2*at(x-1, y) - at(x-1, y+1) +
				at(x+1, y-1) + 2*at(x+1, y) + at(x+1, y+1)
			gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
				at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
			if gx < 0 {
				gx = -gx
			}
			if gy < 0 {
				gy = -gy
			}
			g := gx + gy
			grad[y*sw+x] = g
			if g > maxGrad {
				maxGrad = g
			}
		}
	}

	s := &Sketch{W: sw, H: sh, Edges: make([]bool, sw*sh), Description: description}
	if maxGrad == 0 {
		return s // flat image: no edges
	}
	threshold := maxGrad / 4
	for i, g := range grad {
		s.Edges[i] = g >= threshold
	}
	return s
}

// Marshal encodes the sketch:
//
//	magic "SK01" | W uint8 | H uint8 | descLen uint16 | desc |
//	RLE edge bitmap: alternating run lengths (gamma), starting with a
//	run of zeros (possibly gamma(1) = empty run when starting with 1).
func (s *Sketch) Marshal() ([]byte, error) {
	if s.W < 1 || s.H < 1 || s.W > 255 || s.H > 255 {
		return nil, fmt.Errorf("%w: %dx%d", ErrSketchFormat, s.W, s.H)
	}
	if len(s.Edges) != s.W*s.H {
		return nil, fmt.Errorf("%w: bitmap size", ErrSketchFormat)
	}
	if len(s.Description) > 1<<16-1 {
		return nil, fmt.Errorf("%w: description too long", ErrSketchFormat)
	}
	out := []byte{'S', 'K', '0', '1', byte(s.W), byte(s.H)}
	out = binary.BigEndian.AppendUint16(out, uint16(len(s.Description)))
	out = append(out, s.Description...)

	w := &bitWriter{}
	cur := false // runs alternate starting with zeros
	run := uint32(0)
	for _, e := range s.Edges {
		if e == cur {
			run++
			continue
		}
		w.writeGamma(run + 1)
		cur = !cur
		run = 1
	}
	w.writeGamma(run + 1)
	return append(out, w.bytes()...), nil
}

// SketchSize checks the header of a marshaled sketch and returns its
// raster dimensions, without decoding the bitmap.
func SketchSize(data []byte) (w, h int, err error) {
	if len(data) < 8 || string(data[:4]) != "SK01" || data[4] == 0 || data[5] == 0 ||
		len(data) < 8+int(binary.BigEndian.Uint16(data[6:])) {
		return 0, 0, ErrSketchFormat
	}
	return int(data[4]), int(data[5]), nil
}

// UnmarshalSketch decodes a marshaled sketch.
func UnmarshalSketch(data []byte) (*Sketch, error) {
	w, h, err := SketchSize(data)
	if err != nil {
		return nil, err
	}
	descLen := int(binary.BigEndian.Uint16(data[6:]))
	s := &Sketch{W: w, H: h, Description: string(data[8 : 8+descLen])}
	s.Edges = make([]bool, w*h)

	r := &bitReader{buf: data[8+descLen:]}
	cur := false
	pos := 0
	for pos < len(s.Edges) {
		run, err := r.readGamma()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSketchFormat, err)
		}
		n := int(run) - 1
		if pos+n > len(s.Edges) {
			return nil, fmt.Errorf("%w: run overflows bitmap", ErrSketchFormat)
		}
		for i := 0; i < n; i++ {
			s.Edges[pos+i] = cur
		}
		pos += n
		cur = !cur
	}
	return s, nil
}

// EdgeCount returns the number of edge pixels.
func (s *Sketch) EdgeCount() int {
	n := 0
	for _, e := range s.Edges {
		if e {
			n++
		}
	}
	return n
}
