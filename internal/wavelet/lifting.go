package wavelet

// Integer 5/3 (LeGall) lifting wavelet, the reversible transform of
// JPEG 2000.  Both lifting steps use floor division (Go's arithmetic
// shift), so forward followed by inverse reconstructs exactly.

// fwd1d transforms one signal of length n: low-pass coefficients land
// in out[0:ceil(n/2)], high-pass in out[ceil(n/2):n].  x is not
// modified.  n == 1 copies through.
func fwd1d(x, out []int32) {
	n := len(x)
	if n == 1 {
		out[0] = x[0]
		return
	}
	half := (n + 1) / 2 // number of low-pass coefficients
	nd := n / 2         // number of high-pass coefficients
	lo, hi := out[:half], out[half:half+nd]

	// Predict: d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2),
	// with symmetric extension x[n] = x[n-2].
	for i := 0; i < nd; i++ {
		left := x[2*i]
		var right int32
		if 2*i+2 < n {
			right = x[2*i+2]
		} else {
			right = x[2*i]
		}
		hi[i] = x[2*i+1] - ((left + right) >> 1)
	}
	// Update: s[i] = x[2i] + floor((d[i-1] + d[i] + 2) / 4),
	// with symmetric extension d[-1] = d[0], d[nd] = d[nd-1].
	for i := 0; i < half; i++ {
		var dl, dr int32
		if i-1 >= 0 {
			dl = hi[i-1]
		} else {
			dl = hi[0]
		}
		if i < nd {
			dr = hi[i]
		} else {
			dr = hi[nd-1]
		}
		lo[i] = x[2*i] + ((dl + dr + 2) >> 2)
	}
}

// inv1d inverts fwd1d: coefficients in c (lo|hi layout) are transformed
// back into the signal out.  c is not modified.
func inv1d(c, out []int32) {
	n := len(c)
	if n == 1 {
		out[0] = c[0]
		return
	}
	half := (n + 1) / 2
	nd := n / 2
	lo, hi := c[:half], c[half:half+nd]

	// Undo update: x[2i] = s[i] - floor((d[i-1] + d[i] + 2) / 4).
	for i := 0; i < half; i++ {
		var dl, dr int32
		if i-1 >= 0 {
			dl = hi[i-1]
		} else {
			dl = hi[0]
		}
		if i < nd {
			dr = hi[i]
		} else {
			dr = hi[nd-1]
		}
		out[2*i] = lo[i] - ((dl + dr + 2) >> 2)
	}
	// Undo predict: x[2i+1] = d[i] + floor((x[2i] + x[2i+2]) / 2).
	for i := 0; i < nd; i++ {
		left := out[2*i]
		var right int32
		if 2*i+2 < n {
			right = out[2*i+2]
		} else {
			right = out[2*i]
		}
		out[2*i+1] = hi[i] + ((left + right) >> 1)
	}
}

// Coeffs holds a multi-level 2-D wavelet decomposition in the standard
// Mallat layout: the w×h coefficient plane with the LL band of the
// deepest level in the top-left corner.
type Coeffs struct {
	W, H   int
	Levels int
	Filter Filter
	Data   []int32
}

// MaxLevels returns the deepest decomposition the given size supports
// (each level needs both dimensions of the current LL band ≥ 2).
func MaxLevels(w, h int) int {
	levels := 0
	for w >= 2 && h >= 2 && levels < 8 {
		w = (w + 1) / 2
		h = (h + 1) / 2
		levels++
	}
	return levels
}

// invert undoes the transform in place: c.Data becomes the raster of
// the returned image and no longer holds coefficients.
func (c *Coeffs) invert() *Image {
	im := &Image{W: c.W, H: c.H, Pix: c.Data}

	// Precompute the band sizes per level, then undo deepest-first.
	ws := make([]int, c.Levels+1)
	hs := make([]int, c.Levels+1)
	ws[0], hs[0] = c.W, c.H
	for lv := 1; lv <= c.Levels; lv++ {
		ws[lv] = (ws[lv-1] + 1) / 2
		hs[lv] = (hs[lv-1] + 1) / 2
	}

	_, inv := c.Filter.kernels()
	rowIn := make([]int32, c.W)
	rowOut := make([]int32, c.W)
	colIn := make([]int32, c.H)
	colOut := make([]int32, c.H)
	for lv := c.Levels - 1; lv >= 0; lv-- {
		w, h := ws[lv], hs[lv]
		// Columns first (inverse order of Forward).
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				colIn[y] = im.Pix[y*c.W+x]
			}
			inv(colIn[:h], colOut[:h])
			for y := 0; y < h; y++ {
				im.Pix[y*c.W+x] = colOut[y]
			}
		}
		// Rows.
		for y := 0; y < h; y++ {
			base := y * c.W
			copy(rowIn[:w], im.Pix[base:base+w])
			inv(rowIn[:w], rowOut[:w])
			copy(im.Pix[base:base+w], rowOut[:w])
		}
	}
	return im
}
