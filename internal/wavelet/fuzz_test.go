package wavelet

import (
	"errors"
	"testing"
)

// The coded stream crosses a trust boundary: the base station decodes
// what it collected off the network.  Both targets hold the decoder to
// "never panic, never size anything by an unchecked header" and, for
// whatever raster an input does decode to, to the coder's own
// contract: decode(encode(im)) = im, flagged lossless.
//
// The seed corpora (testdata/fuzz/FuzzDecode, FuzzDecodeColor) are
// real Encode / EncodeColor output for small planes (both filters, odd
// sizes), prefixes of it cut inside the header, at the header, inside
// a plane and inside a colour plane's length field, and hostile
// headers: 32768×32768, a plane just over the pixel bound, too many
// levels, plane 255, a bad magic, a colour plane length of 4 GB and
// colour planes of different sizes.

// fuzzRoundTripPixels keeps the re-encode step to planes small enough
// that the fuzzer still gets through thousands of inputs a second.
const fuzzRoundTripPixels = 1 << 14

func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		res, err := Decode(stream)
		if err != nil {
			return
		}
		im := res.Image
		if !CheckGeometry(im.W, im.H) || len(im.Pix) != im.W*im.H {
			t.Fatalf("decoded a %dx%d raster with %d pixels", im.W, im.H, len(im.Pix))
		}
		if len(im.Pix) > fuzzRoundTripPixels {
			return
		}
		again, err := Encode(im, 0)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(again)
		if err != nil || !back.Lossless || !back.Image.Equal(im) {
			t.Fatalf("decode(encode(im)) != im (err %v)", err)
		}
	})
}

func FuzzDecodeColor(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		res, err := DecodeColor(stream)
		if err != nil {
			return
		}
		im := res.Image
		n := im.W * im.H
		if !CheckGeometry(im.W, im.H) || len(im.R) != n || len(im.G) != n || len(im.B) != n {
			t.Fatalf("decoded a %dx%d raster with %d/%d/%d samples", im.W, im.H, len(im.R), len(im.G), len(im.B))
		}
		if n > fuzzRoundTripPixels {
			return
		}
		again, err := EncodeColor(im, 0, Filter53)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeColor(again)
		if err != nil || !back.Lossless || !back.Image.Equal(im) {
			t.Fatalf("decode(encode(im)) != im (err %v)", err)
		}
	})
}

// FuzzInspect holds the header inspector to the decoders: a relay
// forwards what Inspect accepts without decoding it, so Inspect must
// accept exactly what the decoder of that magic accepts, fail with the
// same sentinel, and report the geometry and plane count the decoder
// finds.  The plane ranges it hands out must lie inside the input, and
// DecodeLuma must agree with the full decoders.  Stopped early at
// SketchMaxDim — the one plane pass a sketch costs — it must fail with
// the same sentinel, parse the same bits, and never return a raster
// larger than the header's plane.  The seed corpus is FuzzDecode's and
// FuzzDecodeColor's, plus colour containers whose chroma header is
// hostile or empty.
func FuzzInspect(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		si, err := Inspect(stream)
		lres, lerr := DecodeLuma(stream, 0)
		sres, serr := DecodeLuma(stream, SketchMaxDim)

		color := len(stream) >= 4 && [4]byte(stream[:4]) == colorMagic
		sentinel := ErrStreamHeader
		var (
			gres *DecodeResult
			cres *ColorDecodeResult
			derr error
		)
		w, h, present := 0, 0, 1
		if color {
			sentinel = ErrColorStream
			if cres, derr = DecodeColor(stream); derr == nil {
				w, h, present = cres.Image.W, cres.Image.H, cres.PlanesPresent
			}
		} else if gres, derr = Decode(stream); derr == nil {
			w, h = gres.Image.W, gres.Image.H
		}

		if derr != nil {
			for _, e := range []error{derr, err, lerr, serr} {
				if !errors.Is(e, sentinel) {
					t.Fatalf("decoder said %v, Inspect %v, DecodeLuma %v, stopped early %v; want %v from all four",
						derr, err, lerr, serr, sentinel)
				}
			}
			return
		}
		if err != nil || lerr != nil || serr != nil {
			t.Fatalf("the decoder accepts what Inspect (%v) or DecodeLuma (%v, stopped early %v) rejects", err, lerr, serr)
		}
		if si.Color != color || si.W != w || si.H != h || si.PlanesPresent != present {
			t.Fatalf("Inspect says colour=%v %dx%d with %d planes, the decoder colour=%v %dx%d with %d",
				si.Color, si.W, si.H, si.PlanesPresent, color, w, h, present)
		}
		at := 0
		for p, sp := range si.Planes[:present] {
			if sp.Start < at || sp.End < sp.Start+headerLen || sp.End > len(stream) {
				t.Fatalf("plane %d range [%d,%d) of a %d B input, previous plane ends at %d", p, sp.Start, sp.End, len(stream), at)
			}
			at = sp.End
		}

		luma := lres.Image
		if luma.W != w || luma.H != h || len(luma.Pix) != w*h {
			t.Fatalf("DecodeLuma gave %dx%d with %d pixels, want %dx%d", luma.W, luma.H, len(luma.Pix), w, h)
		}
		band := sres.Image
		if band.W < 1 || band.H < 1 || band.W > w || band.H > h || len(band.Pix) != band.W*band.H {
			t.Fatalf("DecodeLuma stopped early gave %dx%d with %d pixels from a %dx%d plane", band.W, band.H, len(band.Pix), w, h)
		}
		if sres.BitsUsed != lres.BitsUsed || sres.Lossless != lres.Lossless || sres.PlanesDecoded != lres.PlanesDecoded {
			t.Fatalf("stopping early changed the parse: %d bits, %d planes, lossless %v; full %d, %d, %v",
				sres.BitsUsed, sres.PlanesDecoded, sres.Lossless, lres.BitsUsed, lres.PlanesDecoded, lres.Lossless)
		}
		if !color {
			if !luma.Equal(gres.Image) {
				t.Fatal("DecodeLuma of a gray stream differs from Decode")
			}
			return
		}
		if w*h > fuzzRoundTripPixels {
			return
		}
		// A complete stream of an 8-bit raster: the luma plane alone is
		// the luma of the full decode.
		again, err := EncodeColor(cres.Image, 0, Filter53)
		if err != nil {
			t.Fatal(err)
		}
		want := cres.Image.Luma()
		want.Clamp8()
		if got, err := DecodeLuma(again, 0); err != nil || !got.Lossless || !got.Image.Equal(want) {
			t.Fatalf("DecodeLuma(complete colour stream) != DecodeColor(...).Image.Luma() (err %v)", err)
		}
	})
}
