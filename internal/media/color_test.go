package media

import (
	"bytes"
	"errors"
	"testing"

	"adaptiveqos/internal/wavelet"
)

func testColorObject(t *testing.T) *Object {
	t.Helper()
	obj, err := EncodeColorImage(wavelet.ColorScene(48, 48, 1), "aerial view, red cross marks the site")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestEncodeDecodeColorObject(t *testing.T) {
	im := wavelet.ColorScene(48, 48, 1)
	obj, err := EncodeColorImage(im, "aerial")
	if err != nil {
		t.Fatal(err)
	}
	if !IsColor(obj) || obj.Format != FormatEZWColor {
		t.Errorf("object: %+v", obj)
	}
	res, err := DecodeColorImage(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("full color object should decode losslessly")
	}
	if _, err := DecodeColorImage(NewText("x")); !errors.Is(err, ErrBadInput) {
		t.Errorf("decode text as color: %v", err)
	}
	if IsColor(NewText("x")) {
		t.Error("text is not color")
	}
}

func TestToGrayscale(t *testing.T) {
	obj := testColorObject(t)
	gray, err := ToGrayscale(obj)
	if err != nil {
		t.Fatal(err)
	}
	if gray.Format != FormatEZW || IsColor(gray) {
		t.Errorf("gray object: %+v", gray)
	}
	if gray.Description != obj.Description {
		t.Error("description lost in B/W transformation")
	}
	res, err := DecodeImage(gray)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.W != 48 || res.Image.H != 48 {
		t.Error("gray dimensions")
	}

	// Already-gray objects pass through as a copy.
	same, err := ToGrayscale(gray)
	if err != nil || same.Size() != gray.Size() {
		t.Errorf("identity grayscale: %v", err)
	}
	same.Data[0] = '!'
	if gray.Data[0] == '!' {
		t.Error("identity grayscale aliases input")
	}
	if _, err := ToGrayscale(NewText("x")); !errors.Is(err, ErrBadInput) {
		t.Errorf("grayscale of text: %v", err)
	}

	// The registered module form.
	reg := DefaultRegistry()
	mod, err := reg.Get("color-to-grayscale")
	if err != nil {
		t.Fatal(err)
	}
	out, err := mod.Transform(obj)
	if err != nil || out.Format != FormatEZW {
		t.Errorf("module transform: %v, %v", out, err)
	}
}

func TestColorObjectDownChain(t *testing.T) {
	reg := DefaultRegistry()
	obj := testColorObject(t)

	// Color image → sketch (via internal grayscale conversion).
	sk, err := reg.Transmode(obj, KindSketch)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Kind != KindSketch {
		t.Errorf("sketch: %+v", sk)
	}
	// → text keeps the verbal description.
	txt, err := reg.Transmode(obj, KindText)
	if err != nil || string(txt.Data) != "aerial view, red cross marks the site" {
		t.Errorf("color->text: %q, %v", txt.Data, err)
	}
}

func TestGradateColor(t *testing.T) {
	obj := testColorObject(t)
	full := obj.Size()
	reduced, err := Gradate(obj, full/3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeColorImage(reduced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lossless {
		t.Error("third-budget color cannot be lossless")
	}
	if res.Image.W != 48 {
		t.Error("gradated color dimensions")
	}
}

// TestColorSketchSkipsTheGrayscaleRoundTrip: the sketch of a colour
// object, whole or truncated, is byte for byte what the old route —
// ToGrayscale (re-encode the luma) then DecodeImage — extracted.
func TestColorSketchSkipsTheGrayscaleRoundTrip(t *testing.T) {
	full := testColorObject(t)
	for _, n := range []int{len(full.Data), len(full.Data) / 2, len(full.Data) / 6} {
		obj, err := Gradate(full, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ImageToSketch{}.Transform(obj)
		if err != nil {
			t.Fatal(err)
		}
		gray, err := ToGrayscale(obj)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeImage(gray)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SketchFromRaster(res.Image, obj.Description)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Width != want.Width || got.Height != want.Height || got.Description != want.Description {
			t.Errorf("prefix of %d B: shortcut sketch differs from the grayscale route's", n)
		}
	}
}
