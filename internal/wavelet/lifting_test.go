package wavelet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFwdInv1D(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17, 100, 101} {
		x := make([]int32, n)
		for i := range x {
			x[i] = int32((i*37 + 11) % 256)
		}
		c := make([]int32, n)
		fwd1d(x, c)
		y := make([]int32, n)
		inv1d(c, y)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("n=%d: perfect reconstruction failed at %d: %d != %d", n, i, y[i], x[i])
			}
		}
	}
}

func TestMaxLevels(t *testing.T) {
	cases := []struct {
		w, h, want int
	}{
		{1, 1, 0},
		{2, 2, 1},
		{4, 4, 2},
		{3, 8, 2}, // limited by the narrow dimension: 3→2 (level 1), 2→1 (level 2)
		{256, 256, 8},
		{1024, 1024, 8}, // capped at 8
		{1, 100, 0},
	}
	for _, tc := range cases {
		if got := MaxLevels(tc.w, tc.h); got != tc.want {
			t.Errorf("MaxLevels(%d, %d) = %d, want %d", tc.w, tc.h, got, tc.want)
		}
	}
}

func TestForwardInverse2D(t *testing.T) {
	images := map[string]*Image{
		"gradient":  Gradient(64, 64),
		"circles":   Circles(48, 32),
		"blocks":    Blocks(33, 31, 8, 1),
		"noise":     Noise(17, 23, 2),
		"medical":   Medical(40, 56, 3),
		"tiny":      Gradient(2, 2),
		"one-pixel": Gradient(1, 1),
		"row":       Gradient(64, 1),
		"column":    Gradient(1, 64),
	}
	for name, im := range images {
		for _, levels := range []int{0, 1, 3, 99} {
			c := Forward(im, levels)
			back := Inverse(c)
			if !im.Equal(back) {
				t.Errorf("%s (levels=%d): reconstruction differs", name, levels)
			}
		}
	}
}

func TestScanOrderIsPermutation(t *testing.T) {
	for _, size := range [][2]int{{8, 8}, {7, 5}, {33, 17}, {1, 1}, {2, 3}} {
		im := Gradient(size[0], size[1])
		c := Forward(im, MaxLevels(size[0], size[1]))
		order := scanTable(c.W, c.H, c.Levels)
		if len(order) != size[0]*size[1] {
			t.Fatalf("%v: scan order has %d entries, want %d", size, len(order), size[0]*size[1])
		}
		seen := make([]bool, len(order))
		for _, idx := range order {
			if idx < 0 || int(idx) >= len(seen) || seen[idx] {
				t.Fatalf("%v: scan order not a permutation (index %d)", size, idx)
			}
			seen[idx] = true
		}
	}
}

func TestScanOrderCoarseFirst(t *testing.T) {
	// The first entries must cover the deepest LL band (top-left block).
	im := Gradient(64, 64)
	c := Forward(im, 3)
	order := scanTable(c.W, c.H, c.Levels)
	llW, llH := 8, 8 // 64 >> 3
	for i := 0; i < llW*llH; i++ {
		x, y := int(order[i])%64, int(order[i])/64
		if x >= llW || y >= llH {
			t.Fatalf("scan position %d = (%d,%d) outside deepest LL %dx%d", i, x, y, llW, llH)
		}
	}
}

// TestQuickPerfectReconstruction: arbitrary images at arbitrary sizes
// and levels reconstruct exactly.
func TestQuickPerfectReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(70)
		h := 1 + r.Intn(70)
		im := NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = int32(r.Intn(256))
		}
		levels := r.Intn(MaxLevels(w, h) + 1)
		back := Inverse(Forward(im, levels))
		return im.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuick1DReconstruction: the 1-D lifting kernel is exactly
// invertible for arbitrary signals, including extreme values.
func TestQuick1DReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		x := make([]int32, n)
		for i := range x {
			x[i] = int32(r.Intn(1<<16)) - 1<<15
		}
		c := make([]int32, n)
		y := make([]int32, n)
		fwd1d(x, c)
		inv1d(c, y)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestImageHelpers(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(2, 1, 300)
	im.Set(1, 2, -5)
	if im.At(2, 1) != 300 {
		t.Error("At/Set")
	}
	im.Clamp8()
	if im.At(2, 1) != 255 || im.At(1, 2) != 0 {
		t.Error("Clamp8")
	}

	a, b := Gradient(8, 8), Gradient(8, 8)
	if mse, err := MSE(a, b); err != nil || mse != 0 {
		t.Errorf("MSE identical = %g, %v", mse, err)
	}
	if p, err := PSNR(a, b); err != nil || !isInf(p) {
		t.Errorf("PSNR identical = %g, %v", p, err)
	}
	b.Set(0, 0, b.At(0, 0)+10)
	p, err := PSNR(a, b)
	if err != nil || isInf(p) || p <= 0 {
		t.Errorf("PSNR perturbed = %g, %v", p, err)
	}
	if _, err := MSE(a, Gradient(4, 4)); err == nil {
		t.Error("MSE size mismatch should error")
	}

	defer func() {
		if recover() == nil {
			t.Error("NewImage(0,0) should panic")
		}
	}()
	NewImage(0, 0)
}

func isInf(f float64) bool { return f > 1e308 }
