package media

import (
	"bytes"
	"errors"
	"reflect"
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
	res, err := decodeColorImage(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("full color object should decode losslessly")
	}
	if IsColor(newText("x")) {
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
	res, err := decodeImage(gray)
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
	if _, err := ToGrayscale(newText("x")); !errors.Is(err, ErrBadInput) {
		t.Errorf("grayscale of text: %v", err)
	}

	// The registered module form.
	reg := DefaultRegistry()
	mod := reg.byName["color-to-grayscale"]
	if mod == nil {
		t.Fatal("color-to-grayscale not registered")
	}
	out, err := mod.Transform(obj)
	if err != nil || out.Format != FormatEZW {
		t.Errorf("module transform: %v, %v", out, err)
	}
}

// referenceGrayscale is ToGrayscale as it was before it became a byte
// copy: decode all three planes, take the clamped luma, code it again.
func referenceGrayscale(t *testing.T, o *Object) *Object {
	t.Helper()
	res, err := decodeColorImage(o)
	if err != nil {
		t.Fatal(err)
	}
	luma := res.Image.Luma()
	luma.Clamp8()
	gray, err := EncodeImage(luma, o.Description)
	if err != nil {
		t.Fatal(err)
	}
	return gray
}

// TestToGrayscaleIsTheLumaPlane: on a complete stream the copied luma
// range is byte for byte what decode → luma → encode produced; on a
// prefix that stops inside the luma plane it is that truncated plane —
// the same pixels in fewer bytes than a lossless coding of them.
func TestToGrayscaleIsTheLumaPlane(t *testing.T) {
	full := testColorObject(t)
	got, err := ToGrayscale(full)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceGrayscale(t, full); !bytes.Equal(got.Data, want.Data) || got.Width != want.Width || got.Height != want.Height {
		t.Errorf("complete stream: luma copy is %d B, the re-coded luma %d B, or they differ", len(got.Data), len(want.Data))
	}
	got.Data[0] = '!'
	if full.Data[8] == '!' {
		t.Error("grayscale aliases the colour object")
	}

	si, err := wavelet.Inspect(full.Data)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Gradate(full, si.Planes[0].End/2)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ToGrayscale(cut)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceGrayscale(t, cut)
	a, err := decodeImage(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeImage(want)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Image.Equal(b.Image) {
		t.Error("luma-only prefix: the copied plane decodes to other pixels than the re-coded one")
	}
	if len(got.Data) != len(cut.Data)-si.Planes[0].Start || len(got.Data) >= len(want.Data) {
		t.Errorf("luma-only prefix of %d B: copy is %d B, re-coding %d B", len(cut.Data), len(got.Data), len(want.Data))
	}

	// A colour-format object that holds no colour container is refused.
	bad := full.Clone()
	bad.Data = got.Data
	if _, err := ToGrayscale(bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("gray bytes in a colour object: %v", err)
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
	res, err := decodeColorImage(reduced)
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
// object, whole or truncated, is byte for byte the sketch of its luma
// plane coded as a gray image — so the chroma planes change nothing —
// and ToGrayscale keeps it.
func TestColorSketchSkipsTheGrayscaleRoundTrip(t *testing.T) {
	scene := wavelet.ColorScene(64, 48, 1)
	full, err := EncodeColorImage(scene, "colour test scene")
	if err != nil {
		t.Fatal(err)
	}
	luma, err := EncodeImage(scene.Luma(), full.Description)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ImageToSketch{}.Transform(luma)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(full.Data), len(full.Data) / 2, len(full.Data) / 6} {
		obj, err := Gradate(full, n)
		if err != nil {
			t.Fatal(err)
		}
		gray, err := ToGrayscale(obj)
		if err != nil {
			t.Fatal(err)
		}
		for name, o := range map[string]*Object{"colour": obj, "grayscale": gray} {
			got, err := ImageToSketch{}.Transform(o)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("prefix of %d B, %s: sketch %v differs from the gray route's %v (err %v)", n, name, got, want, err)
			}
		}
	}
}
