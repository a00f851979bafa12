package wavelet

import (
	"bytes"
	"fmt"
	"testing"
)

// llBand is the clamped top-left sw×sh corner of a k-level forward
// transform: the LL band DecodeLuma must return when it stops k levels
// short of the full plane.
func llBand(im *Image, k int, f Filter) *Image {
	c := ForwardFilter(im, k, f)
	sw, sh := im.W, im.H
	for i := 0; i < k; i++ {
		sw, sh = (sw+1)/2, (sh+1)/2
	}
	band := NewImage(sw, sh)
	for y := 0; y < sh; y++ {
		copy(band.Pix[y*sw:(y+1)*sw], c.Data[y*im.W:y*im.W+sw])
	}
	band.Clamp8()
	return band
}

// TestDecodeLumaStopsAtLLBand: on a complete stream of either filter,
// at even and odd sizes, DecodeLuma(stream, maxDim) is the LL band of
// the finest level that fits maxDim on both sides, flagged lossless,
// and parses exactly the bits the full decode parses.
func TestDecodeLumaStopsAtLLBand(t *testing.T) {
	for _, f := range []Filter{Filter53, FilterHaar} {
		for _, sz := range [][2]int{{256, 256}, {200, 120}, {75, 53}, {33, 97}, {41, 41}, {9, 300}} {
			im := Medical(sz[0], sz[1], int64(sz[0]))
			stream, err := EncodeFilter(im, 0, f)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Decode(stream)
			if err != nil {
				t.Fatal(err)
			}
			for _, maxDim := range []int{SketchMaxDim, 8, 5, 1} {
				name := fmt.Sprintf("%v %dx%d maxDim %d", f, sz[0], sz[1], maxDim)
				k, sw, sh := 0, im.W, im.H
				for k < MaxLevels(im.W, im.H) && (sw > maxDim || sh > maxDim) {
					sw, sh = (sw+1)/2, (sh+1)/2
					k++
				}
				res, err := DecodeLuma(stream, maxDim)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := llBand(im, k, f); !res.Image.Equal(want) {
					t.Errorf("%s: got a %dx%d raster, want the %dx%d LL band of level %d", name, res.Image.W, res.Image.H, want.W, want.H, k)
				}
				if !res.Lossless || res.BitsUsed != full.BitsUsed || res.PlanesDecoded != full.PlanesDecoded {
					t.Errorf("%s: lossless %v, %d bits, %d planes; the full decode %v, %d, %d",
						name, res.Lossless, res.BitsUsed, res.PlanesDecoded, full.Lossless, full.BitsUsed, full.PlanesDecoded)
				}
			}
		}
	}
}

// TestDecodeLumaFullPlane: a maxDim the plane already fits, and
// maxDim ≤ 0, both return the full plane — the same raster, bit count
// and flags as Decode — on the complete stream and on its prefixes.
func TestDecodeLumaFullPlane(t *testing.T) {
	for _, f := range []Filter{Filter53, FilterHaar} {
		im := Circles(37, 29)
		stream, err := EncodeFilter(im, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{len(stream), len(stream) / 2, len(stream) / 9, headerLen} {
			want, err := Decode(stream[:n])
			if err != nil {
				t.Fatal(err)
			}
			for _, maxDim := range []int{0, -1, 37, 1000} {
				got, err := DecodeLuma(stream[:n], maxDim)
				if err != nil || !got.Image.Equal(want.Image) || *got != (DecodeResult{got.Image, want.BitsUsed, want.Lossless, want.PlanesDecoded}) {
					t.Errorf("%v, %d B, maxDim %d: not the full decode (err %v)", f, n, maxDim, err)
				}
			}
		}
	}
}

// TestDecodeLumaTooFewLevels: a stream coded with fewer levels than it
// takes to reach maxDim stops at its deepest LL band, which is larger
// than maxDim; ExtractSketch's box average handles the rest.
func TestDecodeLumaTooFewLevels(t *testing.T) {
	im := Medical(256, 256, 2)
	for _, levels := range []int{1, 2} {
		stream, err := EncodeFilter(im, levels, Filter53)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeLuma(stream, SketchMaxDim)
		if err != nil {
			t.Fatal(err)
		}
		if want := llBand(im, levels, Filter53); !res.Image.Equal(want) {
			t.Errorf("%d levels: got %dx%d, want the deepest LL band, %dx%d", levels, res.Image.W, res.Image.H, want.W, want.H)
		}
		if sk := ExtractSketch(res.Image, ""); sk.W > SketchMaxDim || sk.H > SketchMaxDim {
			t.Errorf("%d levels: sketch %dx%d exceeds %d", levels, sk.W, sk.H, SketchMaxDim)
		}
	}
}

// TestEncodeBandIsTheDecodedBand: the band EncodeBand draws from the
// encoder's own coefficients is the raster DecodeLuma reconstructs from
// the whole stream it returns — at the sketch's size, at a smaller one
// and for the full plane; over both filters, full and too-few levels
// and the digest golden's geometries — and the stream is the one
// EncodeFilter codes.  EncodeColorBand's band is its luma plane's.
func TestEncodeBandIsTheDecodedBand(t *testing.T) {
	ims := []*Image{Medical(256, 256, 1), Blocks(100, 37, 8, 2), Circles(64, 64), Noise(33, 17, 4),
		Gradient(1, 64), Gradient(5, 1), Medical(256, 256, 3)}
	for _, f := range []Filter{Filter53, FilterHaar} {
		for _, lv := range []int{0, 1, 3} {
			for _, maxDim := range []int{SketchMaxDim, 5, 0} {
				for _, im := range ims {
					name := fmt.Sprintf("%v %dx%d levels %d maxDim %d", f, im.W, im.H, lv, maxDim)
					stream, band, err := EncodeBand(im, lv, f, maxDim)
					if err != nil {
						t.Fatal(err)
					}
					if want, _ := EncodeFilter(im, lv, f); !bytes.Equal(stream, want) {
						t.Fatalf("%s: EncodeBand's stream is not EncodeFilter's", name)
					}
					res, err := DecodeLuma(stream, maxDim)
					if err != nil || !band.Equal(res.Image) {
						t.Errorf("%s: band %dx%d is not the decoded %dx%d (err %v)", name, band.W, band.H, res.Image.W, res.Image.H, err)
					}
				}
				stream, band, err := EncodeColorBand(ColorScene(96, 64, 3), lv, f, maxDim)
				if err != nil {
					t.Fatal(err)
				}
				if res, err := DecodeLuma(stream, maxDim); err != nil || !band.Equal(res.Image) {
					t.Errorf("colour %v levels %d maxDim %d: band is not the decoded luma band (err %v)", f, lv, maxDim, err)
				}
			}
		}
	}
}
