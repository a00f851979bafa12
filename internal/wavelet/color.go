package wavelet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// Color support: the paper's Figure 3 negotiates over color video (a
// B/W-only client rejects it; a color-capable one accepts).  The coder
// extends to color with the reversible YCoCg-R transform: luma is
// coded first, then the two chroma planes, so a truncated color stream
// degrades toward grayscale before it degrades in resolution.

// ColorImage is an RGB raster with 8-bit nominal channels.
type ColorImage struct {
	W, H    int
	R, G, B []int32
}

// NewColorImage allocates a zero color image.
func NewColorImage(w, h int) *ColorImage {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("wavelet: invalid image size %dx%d", w, h))
	}
	n := w * h
	return &ColorImage{W: w, H: h, R: make([]int32, n), G: make([]int32, n), B: make([]int32, n)}
}

// SetRGB writes one pixel.
func (c *ColorImage) SetRGB(x, y int, r, g, b int32) {
	i := y*c.W + x
	c.R[i], c.G[i], c.B[i] = r, g, b
}

// Equal reports pixel-exact equality.
func (c *ColorImage) Equal(o *ColorImage) bool {
	if c.W != o.W || c.H != o.H {
		return false
	}
	for i := range c.R {
		if c.R[i] != o.R[i] || c.G[i] != o.G[i] || c.B[i] != o.B[i] {
			return false
		}
	}
	return true
}

// YCoCg converts to the reversible YCoCg-R representation: three
// same-sized planes (luma, orange chroma, green chroma).
func (c *ColorImage) YCoCg() (y, co, cg *Image) {
	y = NewImage(c.W, c.H)
	co = NewImage(c.W, c.H)
	cg = NewImage(c.W, c.H)
	for i := range c.R {
		r, g, b := c.R[i], c.G[i], c.B[i]
		coV := r - b
		tmp := b + (coV >> 1)
		cgV := g - tmp
		yV := tmp + (cgV >> 1)
		y.Pix[i], co.Pix[i], cg.Pix[i] = yV, coV, cgV
	}
	return y, co, cg
}

// FromYCoCg inverts YCoCg exactly.
func FromYCoCg(y, co, cg *Image) (*ColorImage, error) {
	if y.W != co.W || y.W != cg.W || y.H != co.H || y.H != cg.H {
		return nil, errors.New("wavelet: YCoCg plane sizes differ")
	}
	out := NewColorImage(y.W, y.H)
	for i := range y.Pix {
		tmp := y.Pix[i] - (cg.Pix[i] >> 1)
		g := cg.Pix[i] + tmp
		b := tmp - (co.Pix[i] >> 1)
		r := b + co.Pix[i]
		out.R[i], out.G[i], out.B[i] = r, g, b
	}
	return out, nil
}

// Luma returns the Y plane alone — the grayscale rendition.
func (c *ColorImage) Luma() *Image {
	y, _, _ := c.YCoCg()
	return y
}

// Color container: magic "EZC1" | 3 × (length u32 | embedded stream),
// plane order Y, Co, Cg.
var colorMagic = [4]byte{'E', 'Z', 'C', '1'}

// ErrColorStream reports a malformed color container.
var ErrColorStream = errors.New("wavelet: bad color stream")

// EncodeColorBand produces the color embedded stream.  levels ≤ 0
// selects the maximum decomposition; the filter applies to all three
// planes.  Like EncodeBand it also returns the raster the whole luma
// plane decodes to at maxDim, from the luma coefficients.
func EncodeColorBand(c *ColorImage, levels int, filter Filter, maxDim int) ([]byte, *Image, error) {
	y, co, cg := c.YCoCg()
	out := append([]byte(nil), colorMagic[:]...)
	var luma *Coeffs
	for _, plane := range []*Image{y, co, cg} {
		stream, coeffs, err := encode(plane, levels, filter)
		if err != nil {
			return nil, nil, err
		}
		if luma == nil {
			luma = coeffs
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(stream)))
		out = append(out, stream...)
	}
	return out, luma.band(maxDim), nil
}

// ColorDecodeResult is a progressive color decode outcome.
type ColorDecodeResult struct {
	// Image is the reconstruction (channels clamped to 8-bit range).
	Image *ColorImage
	// Lossless reports whether all three planes decoded exactly.
	Lossless bool
	// PlanesPresent counts planes with at least a header in the prefix
	// (missing chroma planes decode as zero → grayscale rendition).
	PlanesPresent int
}

// DecodeColor reconstructs a color image from a (possibly truncated)
// prefix of an EncodeColorBand stream.  Truncation costs chroma first:
// with only the luma plane present the result is the grayscale
// rendition of the image.
func DecodeColor(stream []byte) (*ColorDecodeResult, error) {
	si, err := inspectColor(stream)
	if err != nil {
		return nil, err
	}
	planes := make([]*Image, 0, 3)
	lossless := si.PlanesPresent == 3
	for _, sp := range si.Planes[:si.PlanesPresent] {
		res, err := DecodeSigned(stream[sp.Start:sp.End])
		if err != nil {
			return nil, err
		}
		planes = append(planes, res.Image)
		lossless = lossless && res.Lossless
	}
	for len(planes) < 3 {
		planes = append(planes, NewImage(si.W, si.H)) // zero chroma = grayscale
	}
	// Chroma planes are signed; only clamp after color reconstruction.
	img, err := FromYCoCg(planes[0], planes[1], planes[2])
	if err != nil {
		return nil, err
	}
	clamp := func(p []int32) {
		for i, v := range p {
			if v < 0 {
				p[i] = 0
			} else if v > 255 {
				p[i] = 255
			}
		}
	}
	clamp(img.R)
	clamp(img.G)
	clamp(img.B)
	return &ColorDecodeResult{Image: img, Lossless: lossless, PlanesPresent: si.PlanesPresent}, nil
}

// ColorScene renders a synthetic color test scene: a sky gradient,
// a textured terrain band and a bright marker region.
func ColorScene(w, h int, seed int64) *ColorImage {
	r := rand.New(rand.NewSource(seed))
	im := NewColorImage(w, h)
	horizon := h * 2 / 3
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if y < horizon {
				f := float64(y) / float64(horizon)
				im.SetRGB(x, y, int32(90+60*f), int32(140+40*f), int32(220-30*f))
			} else {
				n := int32(r.Intn(24))
				im.SetRGB(x, y, 90+n, 70+n, 40+n/2)
			}
		}
	}
	// Marker: a red cross near the center.
	cx, cy := w/2, h/2
	for d := -w / 8; d <= w/8; d++ {
		if x := cx + d; x >= 0 && x < w {
			im.SetRGB(x, cy, 220, 30, 30)
		}
		if y := cy + d; y >= 0 && y < h {
			im.SetRGB(cx, y, 220, 30, 30)
		}
	}
	return im
}
