package wavelet

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomColor(seed int64, w, h int) *ColorImage {
	r := rand.New(rand.NewSource(seed))
	im := NewColorImage(w, h)
	for i := range im.R {
		im.R[i] = int32(r.Intn(256))
		im.G[i] = int32(r.Intn(256))
		im.B[i] = int32(r.Intn(256))
	}
	return im
}

func TestYCoCgRoundTrip(t *testing.T) {
	im := randomColor(1, 37, 29)
	y, co, cg := im.YCoCg()
	back, err := FromYCoCg(y, co, cg)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(im) {
		t.Fatal("YCoCg-R is not reversible")
	}
	// Gray input has zero chroma.
	gray := NewColorImage(8, 8)
	for i := range gray.R {
		gray.R[i], gray.G[i], gray.B[i] = 77, 77, 77
	}
	_, co, cg = gray.YCoCg()
	for i := range co.Pix {
		if co.Pix[i] != 0 || cg.Pix[i] != 0 {
			t.Fatal("gray pixels must have zero chroma")
		}
	}
	// Mismatched planes rejected.
	if _, err := FromYCoCg(NewImage(4, 4), NewImage(5, 4), NewImage(4, 4)); err == nil {
		t.Error("mismatched planes accepted")
	}
}

func TestEncodeDecodeColorLossless(t *testing.T) {
	for name, im := range map[string]*ColorImage{
		"scene":  ColorScene(48, 48, 2),
		"random": randomColor(3, 31, 17),
		"tiny":   randomColor(4, 1, 1),
	} {
		stream, err := EncodeColor(im, 0, Filter53)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := DecodeColor(stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Lossless || res.PlanesPresent != 3 || !res.Image.Equal(im) {
			t.Errorf("%s: lossless=%v planes=%d equal=%v",
				name, res.Lossless, res.PlanesPresent, res.Image.Equal(im))
		}
	}
}

func TestColorTruncationDegradesToGrayscale(t *testing.T) {
	im := ColorScene(64, 64, 5)
	stream, err := EncodeColor(im, 0, Filter53)
	if err != nil {
		t.Fatal(err)
	}
	// Keep just past the luma plane: 4 magic + 4 len + plane 0.
	lumaLen := int(uint32(stream[4])<<24 | uint32(stream[5])<<16 | uint32(stream[6])<<8 | uint32(stream[7]))
	prefix := stream[:8+lumaLen]
	res, err := DecodeColor(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanesPresent != 1 || res.Lossless {
		t.Fatalf("luma-only prefix: planes=%d lossless=%v", res.PlanesPresent, res.Lossless)
	}
	// Zero chroma means R=G=B everywhere (the grayscale rendition).
	for i := range res.Image.R {
		if res.Image.R[i] != res.Image.G[i] || res.Image.G[i] != res.Image.B[i] {
			t.Fatalf("luma-only decode is not gray at %d: %d %d %d",
				i, res.Image.R[i], res.Image.G[i], res.Image.B[i])
		}
	}

	// PSNR improves monotonically with more of the stream.
	var prev float64 = -1
	for _, frac := range []float64{0.2, 0.5, 1.0} {
		res, err := DecodeColor(stream[:int(float64(len(stream))*frac)])
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		psnr := colorPSNR(im, res.Image)
		if psnr < prev-0.5 {
			t.Errorf("PSNR fell with more data: %.1f after %.1f", psnr, prev)
		}
		prev = psnr
	}
	if !math.IsInf(prev, 1) {
		t.Errorf("full stream PSNR = %g, want +Inf", prev)
	}
}

func TestDecodeColorRejects(t *testing.T) {
	for _, bad := range [][]byte{nil, []byte("EZC1"), []byte("XXXX....")} {
		if _, err := DecodeColor(bad); !errors.Is(err, ErrColorStream) {
			t.Errorf("bad stream %q: %v", bad, err)
		}
	}
	// A stream whose luma header itself is cut returns an error.
	im := ColorScene(16, 16, 1)
	stream, _ := EncodeColor(im, 0, Filter53)
	if _, err := DecodeColor(stream[:10]); err == nil {
		t.Error("cut luma header accepted")
	}
}

// TestQuickYCoCgReversible: arbitrary (even out-of-range) channel
// values survive the color transform exactly.
func TestQuickYCoCgReversible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		im := NewColorImage(1+r.Intn(20), 1+r.Intn(20))
		for i := range im.R {
			im.R[i] = int32(r.Intn(1<<12)) - 1<<11
			im.G[i] = int32(r.Intn(1<<12)) - 1<<11
			im.B[i] = int32(r.Intn(1<<12)) - 1<<11
		}
		y, co, cg := im.YCoCg()
		back, err := FromYCoCg(y, co, cg)
		return err == nil && back.Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickColorPrefixSafe: every prefix of a color stream either
// decodes to a correctly sized image or reports a clean error.
func TestQuickColorPrefixSafe(t *testing.T) {
	im := ColorScene(32, 32, 9)
	stream, err := EncodeColor(im, 0, FilterHaar)
	if err != nil {
		t.Fatal(err)
	}
	f := func(n uint16) bool {
		prefix := stream[:int(n)%(len(stream)+1)]
		res, err := DecodeColor(prefix)
		if err != nil {
			return true
		}
		return res.Image.W == 32 && res.Image.H == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInspectEveryPrefix walks every prefix of a colour stream: Inspect
// and DecodeColor accept the same ones and count the same planes, the
// plane ranges tile the container, and DecodeLuma is the clamped decode
// of the luma range — on the whole stream, the luma of the full decode.
func TestInspectEveryPrefix(t *testing.T) {
	im := randomColor(7, 12, 10)
	stream, err := EncodeColor(im, 0, Filter53)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for n := 0; n <= len(stream); n++ {
		prefix := stream[:n]
		si, err := Inspect(prefix)
		res, derr := DecodeColor(prefix)
		if n < 4 {
			// Too short to carry a magic: a gray stream's error.
			if !errors.Is(err, ErrStreamHeader) {
				t.Fatalf("%d B: %v", n, err)
			}
			continue
		}
		if (err == nil) != (derr == nil) || (err != nil && !errors.Is(err, ErrColorStream)) {
			t.Fatalf("%d B: Inspect %v, DecodeColor %v", n, err, derr)
		}
		if err != nil {
			continue
		}
		if !si.Color || si.W != 12 || si.H != 10 || si.PlanesPresent != res.PlanesPresent {
			t.Fatalf("%d B: %+v, decoder found %d planes", n, si, res.PlanesPresent)
		}
		seen[si.PlanesPresent] = true
		at := 4
		for _, sp := range si.Planes[:si.PlanesPresent] {
			if sp.Start != at+4 || sp.End > n {
				t.Fatalf("%d B: plane range %+v after offset %d", n, sp, at)
			}
			at = sp.End
		}
		luma, err := DecodeLuma(prefix, 0)
		want, werr := Decode(prefix[si.Planes[0].Start:si.Planes[0].End])
		if err != nil || werr != nil || !luma.Image.Equal(want.Image) || luma.Lossless != want.Lossless {
			t.Fatalf("%d B: DecodeLuma is not the decode of the luma range (err %v, %v)", n, err, werr)
		}
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("prefixes covered plane counts %v, want 1, 2 and 3", seen)
	}
	luma, err := DecodeLuma(stream, 0)
	want := im.Luma()
	if err != nil || !luma.Lossless || !luma.Image.Equal(want) {
		t.Errorf("DecodeLuma of the whole stream is not the image's luma (err %v)", err)
	}
	if n := testing.AllocsPerRun(50, func() { Inspect(stream) }); n != 0 {
		t.Errorf("Inspect allocates %.0f times", n)
	}
}
