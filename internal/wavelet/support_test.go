package wavelet

import (
	"math"
	"math/rand"
	"testing"
)

// Test inputs and conveniences no program needs (the census gate,
// internal/census, keeps them out of the production surface).

// Gradient renders a diagonal luminance ramp.
func Gradient(w, h int) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, int32((x+y)*255/(w+h-2+1)))
		}
	}
	return im
}

// Noise renders uniform noise (worst case for transform coding).
func Noise(w, h int, seed int64) *Image {
	r := rand.New(rand.NewSource(seed))
	im := NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = int32(r.Intn(256))
	}
	return im
}

// Forward is ForwardFilter with the default 5/3 filter.
func Forward(im *Image, levels int) *Coeffs { return ForwardFilter(im, levels, Filter53) }

// Inverse reconstructs the image from a copy of the decomposition
// (invert consumes its receiver).
func Inverse(c *Coeffs) *Image {
	d := *c
	d.Data = append([]int32(nil), c.Data...)
	return d.invert()
}

// prefixPSNR decodes the first n bytes of stream and scores them
// against the original.
func prefixPSNR(t *testing.T, original *Image, stream []byte, n int) float64 {
	t.Helper()
	res, err := Decode(stream[:n])
	if err != nil {
		t.Fatalf("prefix %d: %v", n, err)
	}
	psnr, err := PSNR(original, res.Image)
	if err != nil {
		t.Fatal(err)
	}
	return psnr
}

// colorPSNR averages the per-channel PSNR (dB); +Inf when identical.
func colorPSNR(a, b *ColorImage) float64 {
	var sum float64
	for _, pair := range [][2][]int32{{a.R, b.R}, {a.G, b.G}, {a.B, b.B}} {
		for i := range pair[0] {
			d := float64(pair[0][i] - pair[1][i])
			sum += d * d
		}
	}
	mse := sum / float64(3*a.W*a.H)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}
