package wavelet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHaar1DReconstruction(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 100, 101} {
		x := make([]int32, n)
		for i := range x {
			x[i] = int32((i*91 + 7) % 256)
		}
		c := make([]int32, n)
		y := make([]int32, n)
		fwdHaar1d(x, c)
		invHaar1d(c, y)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("n=%d: haar reconstruction failed at %d", n, i)
			}
		}
	}
}

func TestHaar2DPerfectReconstruction(t *testing.T) {
	for name, im := range map[string]*Image{
		"gradient": Gradient(48, 48),
		"blocks":   Blocks(33, 31, 8, 1),
		"noise":    Noise(17, 23, 2),
		"row":      Gradient(64, 1),
	} {
		for _, levels := range []int{0, 1, 3, 99} {
			c := ForwardFilter(im, levels, FilterHaar)
			if c.Filter != FilterHaar {
				t.Fatalf("%s: filter not recorded", name)
			}
			if !Inverse(c).Equal(im) {
				t.Errorf("%s (levels=%d): haar reconstruction differs", name, levels)
			}
		}
	}
}

func TestEncodeFilterHaarRoundTrip(t *testing.T) {
	im := Blocks(64, 64, 16, 3)
	stream, err := EncodeFilter(im, 0, FilterHaar)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("haar stream should decode losslessly")
	}

	// Prefix decoding works with the haar filter too.
	if psnr := prefixPSNR(t, im, stream, len(stream)/4); psnr <= 10 {
		t.Errorf("haar quarter-prefix PSNR = %.1f", psnr)
	}

	// Unknown filter rejected.
	if _, err := EncodeFilter(im, 0, Filter(9)); err == nil {
		t.Error("unknown filter accepted")
	}
	for _, f := range []Filter{Filter53, FilterHaar, Filter(9)} {
		if f.String() == "" {
			t.Errorf("empty name for filter %d", f)
		}
	}
}

func TestHaarWinsOnBlockyContent(t *testing.T) {
	// Piecewise-constant content has no gradients for the 5/3 predictor
	// to exploit; haar's pairwise differences are mostly zero.  The
	// haar stream should not be meaningfully larger (and is usually
	// smaller) on blocky inputs.
	im := Blocks(128, 128, 16, 11)
	s53, err := Encode(im, 0)
	if err != nil {
		t.Fatal(err)
	}
	sHaar, err := EncodeFilter(im, 0, FilterHaar)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(sHaar)) > 1.1*float64(len(s53)) {
		t.Errorf("haar %dB much larger than 5/3 %dB on blocky content", len(sHaar), len(s53))
	}

	// And conversely the 5/3 filter should win on smooth gradients.
	smooth := Gradient(128, 128)
	g53, _ := Encode(smooth, 0)
	gHaar, _ := EncodeFilter(smooth, 0, FilterHaar)
	if len(g53) >= len(gHaar) {
		t.Logf("note: 5/3 %dB vs haar %dB on smooth content", len(g53), len(gHaar))
	}
}

// TestQuickHaarReconstruction: arbitrary signals and images survive the
// haar transform exactly.
func TestQuickHaarReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		if r.Intn(2) == 0 {
			n := 1 + r.Intn(150)
			x := make([]int32, n)
			for i := range x {
				x[i] = int32(r.Intn(1<<16)) - 1<<15
			}
			c := make([]int32, n)
			y := make([]int32, n)
			fwdHaar1d(x, c)
			invHaar1d(c, y)
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		w := 1 + r.Intn(50)
		h := 1 + r.Intn(50)
		im := NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = int32(r.Intn(256))
		}
		return Inverse(ForwardFilter(im, r.Intn(6), FilterHaar)).Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHaarCodecLossless: the embedded coder is lossless over the
// haar filter for arbitrary images.
func TestQuickHaarCodecLossless(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(33)
		h := 1 + r.Intn(33)
		im := NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = int32(r.Intn(256))
		}
		stream, err := EncodeFilter(im, 0, FilterHaar)
		if err != nil {
			return false
		}
		res, err := Decode(stream)
		return err == nil && res.Lossless && res.Image.Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
