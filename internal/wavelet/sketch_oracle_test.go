package wavelet_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/wavelet"
)

// The sketch an image object carries replaced a derivation at the base
// station: decode the luma plane's LL band at SketchMaxDim, then
// SketchFromRaster.  That derivation is the oracle here, byte for byte.

// derivedSketch is the sketch the station derived from a stream.
func derivedSketch(t *testing.T, stream []byte, description string) string {
	t.Helper()
	res, err := wavelet.DecodeLuma(stream, wavelet.SketchMaxDim)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := media.SketchFromRaster(res.Image, description)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// corpus returns the streams of a fuzz seed corpus under testdata.
func corpus(t *testing.T, target string) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus %s: %d files (%v)", target, len(files), err)
	}
	out := make(map[string][]byte)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = []byte(s)
	}
	return out
}

// TestCarriedSketchIsTheDerivedSketch: for the six gray and two colour
// 256² scenes the image-tiered benchmark shares, every image the
// wavelet seed corpora hold (re-coded with the filter and depth their
// headers name), and the digest golden's images coded with the Haar
// filter and with too few levels to reach SketchMaxDim, the sketch the
// encoder draws is the one the decode-side derivation yields.
func TestCarriedSketchIsTheDerivedSketch(t *testing.T) {
	var objs []*media.Object
	for i, im := range []*wavelet.Image{
		wavelet.Medical(256, 256, 1), wavelet.Medical(256, 256, 2), wavelet.Medical(256, 256, 3),
		wavelet.Blocks(256, 256, 16, 4), wavelet.Blocks(256, 256, 32, 5), wavelet.Circles(256, 256),
	} {
		obj, err := media.EncodeImage(im, fmt.Sprintf("gray scene %d", i))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for i := int64(6); i < 8; i++ {
		obj, err := media.EncodeColorImage(wavelet.ColorScene(256, 256, i), fmt.Sprintf("colour scene %d", i))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		if obj.Sketch == "" || obj.Sketch != derivedSketch(t, obj.Data, obj.Description) {
			t.Errorf("%s (%q): carried sketch differs from the derived one", obj, obj.Description)
		}
	}

	// band is one coded case: the stream and the band its encoder drew.
	type band struct {
		name   string
		stream []byte
		raster *wavelet.Image
	}
	var cases []band
	// A seed that decodes losslessly is an image; its header names the
	// filter and depth it was coded with (levels in the low bits, bit 7
	// Haar), and the encoder must reproduce it.
	recode := func(name string, stream, luma []byte, encode func(int, wavelet.Filter) ([]byte, *wavelet.Image, error)) {
		f := wavelet.Filter53
		if luma[8]&0x80 != 0 {
			f = wavelet.FilterHaar
		}
		again, raster, err := encode(int(luma[8]&0x7f), f)
		if err != nil || !bytes.Equal(again, stream) {
			t.Fatalf("%s: re-coding the seed's image gives other bytes (err %v)", name, err)
		}
		cases = append(cases, band{name, stream, raster})
	}
	for name, stream := range corpus(t, "FuzzDecode") {
		if res, err := wavelet.Decode(stream); err == nil && res.Lossless {
			recode(name, stream, stream, func(lv int, f wavelet.Filter) ([]byte, *wavelet.Image, error) {
				return wavelet.EncodeBand(res.Image, lv, f, wavelet.SketchMaxDim)
			})
		}
	}
	for name, stream := range corpus(t, "FuzzDecodeColor") {
		if res, err := wavelet.DecodeColor(stream); err == nil && res.Lossless {
			recode(name, stream, stream[8:], func(lv int, f wavelet.Filter) ([]byte, *wavelet.Image, error) {
				return wavelet.EncodeColorBand(res.Image, lv, f, wavelet.SketchMaxDim)
			})
		}
	}
	if len(cases) < 3 {
		t.Fatalf("only %d corpus seeds are whole images", len(cases))
	}
	for _, im := range []*wavelet.Image{wavelet.Medical(256, 256, 1), wavelet.Blocks(100, 37, 8, 2),
		wavelet.Circles(64, 64), wavelet.Noise(33, 17, 4), wavelet.Gradient(1, 64), wavelet.Gradient(5, 1)} {
		for _, f := range []wavelet.Filter{wavelet.Filter53, wavelet.FilterHaar} {
			for _, lv := range []int{0, 1, 2} {
				stream, raster, err := wavelet.EncodeBand(im, lv, f, wavelet.SketchMaxDim)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, band{fmt.Sprintf("%dx%d %v levels %d", im.W, im.H, f, lv), stream, raster})
			}
		}
	}
	for _, c := range cases {
		got, err := media.SketchFromRaster(c.raster, c.name)
		if err != nil || got != derivedSketch(t, c.stream, c.name) {
			t.Errorf("%s: the encoder's sketch differs from the derived one (err %v)", c.name, err)
		}
	}
}
