package media

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/wavelet"
)

func testImageObject(t *testing.T) *Object {
	t.Helper()
	im := wavelet.Medical(64, 64, 1)
	obj, err := EncodeImage(im, "synthetic scan")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestEncodeDecodeImageObject(t *testing.T) {
	im := wavelet.Circles(48, 48)
	obj, err := EncodeImage(im, "rings")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Kind != KindImage || obj.Format != FormatEZW || obj.Width != 48 {
		t.Errorf("object: %+v", obj)
	}
	res, err := decodeImage(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("full image object should decode losslessly")
	}

	attrs := obj.Attrs()
	if attrs["media"].Str() != "image" || attrs["width"].Num() != 48 {
		t.Errorf("attrs: %v", attrs)
	}
	if attrs["description"].Str() != "rings" {
		t.Errorf("description attr: %v", attrs)
	}
}

func TestGradate(t *testing.T) {
	obj := testImageObject(t)
	full := obj.Size()

	half, err := Gradate(obj, full/2)
	if err != nil {
		t.Fatal(err)
	}
	if half.Size() != full/2 {
		t.Errorf("gradated size = %d, want %d", half.Size(), full/2)
	}
	// The gradated prefix still decodes.
	res, err := decodeImage(half)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lossless {
		t.Error("half stream should not be lossless")
	}
	if res.Image.W != 64 {
		t.Error("gradated decode dimensions")
	}
	// Budget larger than content: unchanged copy.
	same, err := Gradate(obj, full*2)
	if err != nil || same.Size() != full {
		t.Errorf("oversized budget: %d, %v", same.Size(), err)
	}
	same.Data[0] = 'X'
	if obj.Data[0] == 'X' {
		t.Error("Gradate must not alias input")
	}
	// Tiny budget clamps to header.
	tiny, err := Gradate(obj, 1)
	if err != nil || tiny.Size() < 10 {
		t.Errorf("tiny budget: %d, %v", tiny.Size(), err)
	}
	// Text can't be gradated below its size.
	if _, err := Gradate(newText(strings.Repeat("a", 100)), 10); !errors.Is(err, ErrBadInput) {
		t.Errorf("gradate text: %v", err)
	}
	// ... but passes through if it fits.
	if o, err := Gradate(newText("hi"), 100); err != nil || string(o.Data) != "hi" {
		t.Errorf("gradate fitting text: %v", err)
	}
}

func TestImageToSketchToText(t *testing.T) {
	obj := testImageObject(t)
	reg := DefaultRegistry()

	sk, err := reg.Transmode(obj, KindSketch)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Kind != KindSketch || sk.Format != FormatSketch {
		t.Errorf("sketch object: %+v", sk)
	}
	if ratio := float64(obj.Size()) / float64(sk.Size()); ratio < 20 {
		t.Errorf("sketch only %.1fx smaller than coded image", ratio)
	}

	txt, err := reg.Transmode(sk, KindText)
	if err != nil {
		t.Fatal(err)
	}
	if string(txt.Data) != "synthetic scan" {
		t.Errorf("sketch->text = %q", txt.Data)
	}

	// Direct image -> text uses the description.
	txt2, err := reg.Transmode(obj, KindText)
	if err != nil || string(txt2.Data) != "synthetic scan" {
		t.Errorf("image->text: %q, %v", txt2.Data, err)
	}

	// Missing description still yields usable text.
	anon := obj.Clone()
	anon.Description = ""
	txt3, err := ImageToText{}.Transform(anon)
	if err != nil || !strings.Contains(string(txt3.Data), "64x64") {
		t.Errorf("undescribed image->text: %q, %v", txt3.Data, err)
	}
}

// TestImageToSketchFromLLBand holds the carried sketch to the claims
// ExtractSketch makes of a raster: a 512×512 scan's sketch is ≥500×
// smaller than the original and a flat image has no edges.  (A plane
// coded with too few levels to reach SketchMaxDim is the wavelet
// oracle's case: EncodeImage always codes every level.)
func TestImageToSketchFromLLBand(t *testing.T) {
	scan := wavelet.Medical(512, 512, 4)
	obj, err := EncodeImage(scan, "chest scan, lesion upper-left quadrant")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ImageToSketch{}.Transform(obj)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(scan.W*scan.H) / float64(sk.Size()); ratio < 500 {
		t.Errorf("sketch ratio %.0fx (%d B), want >= 500x", ratio, sk.Size())
	}
	if s, err := wavelet.UnmarshalSketch(sk.Data); err != nil || s.EdgeCount() == 0 {
		t.Errorf("scan sketch has no edges (err %v)", err)
	}

	flat, err := EncodeImage(wavelet.NewImage(100, 100), "")
	if err != nil {
		t.Fatal(err)
	}
	fsk, err := ImageToSketch{}.Transform(flat)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := wavelet.UnmarshalSketch(fsk.Data); err != nil || s.EdgeCount() != 0 {
		t.Errorf("flat image sketch: %v", err)
	}
}

// TestSketchTravelsWithTheImage: the sketch tier of an image object is
// the sketch it carries, whole or cut (Clone and Gradate keep it, as
// ToGrayscale does in the colour test), as the sketch object the
// derivation from the LL band yields.  An image that carries none, or whose sketch fails its
// header check, cannot be sketched: Transform says so and decodes
// nothing in its place.
func TestSketchTravelsWithTheImage(t *testing.T) {
	im := wavelet.Medical(96, 80, 7)
	obj, err := EncodeImage(im, "ward scan")
	if err != nil {
		t.Fatal(err)
	}
	carried, err := wavelet.UnmarshalSketch([]byte(obj.Sketch))
	if err != nil || carried.W > wavelet.SketchMaxDim || carried.H > wavelet.SketchMaxDim || carried.Description != "ward scan" {
		t.Fatalf("carried sketch %+v (err %v)", carried, err)
	}
	cut, err := Gradate(obj, obj.Size()/5)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Object{"whole": obj, "clone": obj.Clone(), "cut": cut} {
		sk, err := ImageToSketch{}.Transform(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := &Object{Kind: KindSketch, Format: FormatSketch, Data: []byte(obj.Sketch),
			Description: "ward scan", Width: carried.W, Height: carried.H}
		if !reflect.DeepEqual(sk, want) {
			t.Errorf("%s: sketch tier %+v, want %+v", name, sk, want)
		}
	}

	valid := obj.Sketch
	corrupt := map[string]string{
		"none":         "",
		"bad magic":    "SK02" + valid[4:],
		"zero width":   valid[:4] + "\x00" + valid[5:],
		"cut header":   valid[:7],
		"desc lies":    valid[:8+len("ward scan")-1],
		"not a sketch": "EZW1" + valid[4:],
	}
	for name, sketch := range corrupt {
		o := obj.Clone()
		o.Sketch = sketch
		if sk, err := (ImageToSketch{}).Transform(o); err == nil {
			t.Errorf("%s: sketched as %s", name, sk)
		}
		if _, err := DefaultRegistry().Transmode(o, KindSketch); !errors.Is(err, wavelet.ErrSketchFormat) {
			t.Errorf("%s: Transmode error %v, want ErrSketchFormat", name, err)
		}
	}
}

func TestSpeechRoundTrip(t *testing.T) {
	reg := DefaultRegistry()
	in := newText("share the northeast quadrant of the site map")

	sp, err := reg.Transmode(in, KindSpeech)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindSpeech || sp.Format != FormatSpeech {
		t.Errorf("speech object: %+v", sp)
	}
	if sp.Size() <= in.Size()*8 {
		t.Errorf("speech should be much larger than text: %d vs %d", sp.Size(), in.Size())
	}

	back, err := reg.Transmode(sp, KindText)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Data) != string(in.Data) {
		t.Errorf("speech->text = %q", back.Data)
	}

	// Corrupt speech stream.
	bad := sp.Clone()
	bad.Data = bad.Data[:6]
	if _, err := (SpeechToText{}).Transform(bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("truncated speech: %v", err)
	}
	bad = sp.Clone()
	bad.Data[0] = 'X'
	if _, err := (SpeechToText{}).Transform(bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad magic speech: %v", err)
	}
}

func TestMultiHopPath(t *testing.T) {
	reg := DefaultRegistry()

	// image -> speech requires image->text->speech (or via sketch).
	path, err := reg.Path(KindImage, KindSpeech)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Errorf("path length = %d, want 2", len(path))
	}
	obj := testImageObject(t)
	sp, err := reg.Transmode(obj, KindSpeech)
	if err != nil || sp.Kind != KindSpeech {
		t.Errorf("image->speech: %v, %v", sp, err)
	}

	// Identity path.
	p, err := reg.Path(KindText, KindText)
	if err != nil || len(p) != 0 {
		t.Errorf("identity path: %v, %v", p, err)
	}
	same, err := reg.Transmode(obj, KindImage)
	if err != nil || !strings.Contains(same.String(), "image") {
		t.Errorf("identity transmode: %v", err)
	}
	same.Data[0] = '!'
	if obj.Data[0] == '!' {
		t.Error("identity transmode must not alias input")
	}

	// No reverse path to image exists.
	if _, err := reg.Path(KindText, KindImage); !errors.Is(err, ErrNoPath) {
		t.Errorf("text->image: %v", err)
	}
	if canReach(reg, KindText, KindImage) {
		t.Error("CanReach text->image should be false")
	}
	if !canReach(reg, KindImage, KindText) {
		t.Error("CanReach image->text should be true")
	}
}

// TestRoutesAreSharedAndForgotten: Transmode's memoized routes are read
// from several goroutines at once (the base station's dispatch shards
// derive tiers through one registry), a kind no module converts from is
// not memoized, and registering a module forgets the routes, so a
// shorter path it opens is taken.
func TestRoutesAreSharedAndForgotten(t *testing.T) {
	reg := DefaultRegistry()
	obj := testImageObject(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, to := range []Kind{KindSketch, KindText, KindSpeech} {
					if out, err := reg.Transmode(obj, to); err != nil || out.Kind != to {
						t.Errorf("image -> %s: %v, %v", to, out, err)
					}
				}
				if _, err := reg.Transmode(&Object{Kind: Kind(fmt.Sprint("k", i))}, KindText); !errors.Is(err, ErrNoPath) {
					t.Errorf("an unknown kind: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(reg.routes); n != 3 {
		t.Errorf("%d routes memoized, want 3 (image to sketch, text and speech)", n)
	}

	direct := 0
	reg.Register(imageToSpeech{&direct})
	if out, err := reg.Transmode(obj, KindSpeech); err != nil || out.Kind != KindSpeech || direct != 1 {
		t.Errorf("image -> speech after a direct module registered: %v, %v, direct module ran %d times", out, err, direct)
	}
}

// imageToSpeech is a one-hop image -> speech module that counts its runs.
type imageToSpeech struct{ runs *int }

func (imageToSpeech) Name() string { return "image-to-speech" }
func (imageToSpeech) From() Kind   { return KindImage }
func (imageToSpeech) To() Kind     { return KindSpeech }
func (m imageToSpeech) Transform(in *Object) (*Object, error) {
	*m.runs++
	return &Object{Kind: KindSpeech, Format: "direct", Description: in.Description}, nil
}

func TestRegistryLookup(t *testing.T) {
	reg := DefaultRegistry()
	if len(reg.byName) != 7 {
		t.Errorf("modules: %v", reg.byName)
	}
	tr := reg.byName["text-to-speech"]
	if tr == nil || tr.From() != KindText || tr.To() != KindSpeech {
		t.Errorf("text-to-speech: %v", tr)
	}
	// Every registered transformer rejects wrong-kind input.
	for name, tr := range reg.byName {
		wrong := &Object{Kind: KindVideo, Format: "x", Data: []byte("x")}
		if _, err := tr.Transform(wrong); err == nil {
			t.Errorf("%s accepted video input", name)
		}
	}
}

// TestQuickTextSpeechRoundTrip: arbitrary text survives the
// text→speech→text chain exactly.
func TestQuickTextSpeechRoundTrip(t *testing.T) {
	reg := DefaultRegistry()
	f := func(s string) bool {
		if len(s) > 10000 {
			s = s[:10000]
		}
		sp, err := reg.Transmode(newText(s), KindSpeech)
		if err != nil {
			return false
		}
		back, err := reg.Transmode(sp, KindText)
		return err == nil && string(back.Data) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGradatePrefixDecodes: any gradation budget yields a
// decodable image object with non-increasing size.
func TestQuickGradatePrefixDecodes(t *testing.T) {
	obj := func() *Object {
		im := wavelet.Circles(32, 32)
		o, err := EncodeImage(im, "t")
		if err != nil {
			t.Fatal(err)
		}
		return o
	}()
	f := func(budget int) bool {
		if budget < 0 {
			budget = -budget
		}
		budget %= obj.Size() + 100
		g, err := Gradate(obj, budget)
		if err != nil {
			return false
		}
		if g.Size() > obj.Size() {
			return false
		}
		res, err := decodeImage(g)
		return err == nil && res.Image.W == 32 && res.Image.H == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Test-side conveniences over the package's objects.

func newText(s string) *Object {
	return &Object{Kind: KindText, Format: FormatText, Data: []byte(s), Description: s}
}

func decodeImage(o *Object) (*wavelet.DecodeResult, error) { return wavelet.Decode(o.Data) }

func decodeColorImage(o *Object) (*wavelet.ColorDecodeResult, error) {
	return wavelet.DecodeColor(o.Data)
}

func canReach(r *Registry, from, to Kind) bool {
	_, err := r.Path(from, to)
	return err == nil
}

// BenchmarkEncodeImage is the sender's cost of a 256×256 share: the
// coded stream and, drawn from its LL band, the sketch it carries.
func BenchmarkEncodeImage(b *testing.B) {
	gray, colour := wavelet.Medical(256, 256, 1), wavelet.ColorScene(256, 256, 6)
	b.Run("gray", func(b *testing.B) {
		for range b.N {
			if _, err := EncodeImage(gray, "gray scene"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("colour", func(b *testing.B) {
		for range b.N {
			if _, err := EncodeColorImage(colour, "colour scene"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
