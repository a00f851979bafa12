// Package wavelet implements the progressive image coding module used
// by the information transformer: a 2-D integer 5/3 lifting wavelet
// transform, an embedded (prefix-decodable) bit-plane coder in the
// spirit of zerotree coding [Shapiro 1992; Lamboray 1997], a
// packetizer, and the robust sketch extractor that reduces an image to
// a tiny edge sketch (≈2000× less data) with an attached verbal
// description.
//
// The embedded property is what the QoS framework exploits: any prefix
// of the coded stream decodes to a valid image whose quality grows
// with the prefix length, so the inference engine can bound quality by
// bounding "the number of image packets to be received".
package wavelet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Image is a grayscale image with 8-bit nominal range (values may
// exceed it transiently during processing).
type Image struct {
	W, H int
	Pix  []int32 // row-major, len W*H
}

// NewImage allocates a zero image.
func NewImage(w, h int) *Image {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("wavelet: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]int32, w*h)}
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) int32 { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y).
func (im *Image) Set(x, y int, v int32) { im.Pix[y*im.W+x] = v }

// Clamp8 limits every pixel to [0, 255].
func (im *Image) Clamp8() {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 255 {
			im.Pix[i] = 255
		}
	}
}

// Equal reports pixel-exact equality.
func (im *Image) Equal(o *Image) bool {
	if im.W != o.W || im.H != o.H {
		return false
	}
	for i := range im.Pix {
		if im.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// MSE returns the mean squared error between two same-sized images.
func MSE(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, errors.New("wavelet: MSE of differently sized images")
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i] - b.Pix[i])
		sum += d * d
	}
	return sum / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB for 8-bit images;
// identical images yield +Inf.
func PSNR(a, b *Image) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// --- Synthetic image generators (the reproduction's image corpus) ---

// Circles renders concentric rings, a classic compression test target
// with strong edges at all orientations.
func Circles(w, h int) *Image {
	im := NewImage(w, h)
	cx, cy := float64(w)/2, float64(h)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			v := 127.5 + 127.5*math.Sin(d/6)
			im.Set(x, y, int32(v))
		}
	}
	return im
}

// Blocks renders a checkerboard of random-intensity tiles (seeded),
// standing in for document/whiteboard content.
func Blocks(w, h, tile int, seed int64) *Image {
	if tile < 1 {
		tile = 8
	}
	r := rand.New(rand.NewSource(seed))
	tilesX := (w + tile - 1) / tile
	tilesY := (h + tile - 1) / tile
	levels := make([]int32, tilesX*tilesY)
	for i := range levels {
		levels[i] = int32(r.Intn(256))
	}
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, levels[(y/tile)*tilesX+(x/tile)])
		}
	}
	return im
}

// Medical renders a synthetic "scan": a bright elliptical region with
// internal texture on a dark background — the telediagnosis workload.
func Medical(w, h int, seed int64) *Image {
	r := rand.New(rand.NewSource(seed))
	im := NewImage(w, h)
	cx, cy := float64(w)/2, float64(h)/2
	rx, ry := float64(w)*0.35, float64(h)*0.42
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx := (float64(x) - cx) / rx
			dy := (float64(y) - cy) / ry
			d := dx*dx + dy*dy
			var v float64
			switch {
			case d < 0.55:
				v = 170 + 40*math.Sin(float64(x)/7)*math.Cos(float64(y)/9) + float64(r.Intn(14))
			case d < 1:
				v = 120 + 30*(1-d)
			default:
				v = 18 + float64(r.Intn(8))
			}
			im.Set(x, y, int32(math.Max(0, math.Min(255, v))))
		}
	}
	return im
}
