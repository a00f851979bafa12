package wavelet

import "testing"

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
		if !checkGeometry(im.W, im.H) || len(im.Pix) != im.W*im.H {
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
		if !checkGeometry(im.W, im.H) || len(im.R) != n || len(im.G) != n || len(im.B) != n {
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
