package wavelet

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeLossless(t *testing.T) {
	images := map[string]*Image{
		"gradient": Gradient(64, 64),
		"circles":  Circles(64, 64),
		"blocks":   Blocks(48, 48, 8, 1),
		"medical":  Medical(64, 64, 2),
		"noise":    Noise(32, 32, 3),
		"flat":     NewImage(16, 16),
		"odd":      Circles(37, 29),
	}
	for name, im := range images {
		stream, err := Encode(im, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Decode(stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Lossless {
			t.Errorf("%s: full stream not flagged lossless", name)
		}
		if !res.Image.Equal(im) {
			t.Errorf("%s: full decode differs from original", name)
		}
	}
}

func TestEncodeCompresses(t *testing.T) {
	// Structured content must compress well below 8 bpp losslessly.
	im := Blocks(128, 128, 16, 7)
	stream, err := Encode(im, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := im.W * im.H // 1 byte per pixel
	if len(stream) >= raw {
		t.Errorf("lossless stream %d B >= raw %d B for blocky content", len(stream), raw)
	}
}

func TestProgressiveQualityMonotone(t *testing.T) {
	im := Medical(96, 96, 5)
	stream, err := Encode(im, 0)
	if err != nil {
		t.Fatal(err)
	}
	var prevPSNR float64
	fractions := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}
	for i, f := range fractions {
		n := int(float64(len(stream)) * f)
		psnr := prefixPSNR(t, im, stream, max(n, headerLen))
		if i > 0 && psnr+0.5 < prevPSNR { // tiny tolerance for mid-plane cuts
			t.Errorf("PSNR not monotone: %.2f dB at %g after %.2f dB", psnr, f, prevPSNR)
		}
		prevPSNR = psnr
	}
	// The full prefix must be lossless (infinite PSNR).
	if psnr := prefixPSNR(t, im, stream, len(stream)); !isInf(psnr) {
		t.Errorf("full prefix PSNR = %g, want +Inf", psnr)
	}
}

func TestDecodeTruncationsNeverPanic(t *testing.T) {
	im := Medical(48, 48, 9)
	stream, _ := Encode(im, 0)
	for n := 0; n <= len(stream); n++ {
		res, err := Decode(stream[:n])
		if n < headerLen {
			if !errors.Is(err, ErrStreamHeader) {
				t.Fatalf("truncation %d: %v", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("truncation %d: %v", n, err)
		}
		if res.Image.W != im.W || res.Image.H != im.H {
			t.Fatalf("truncation %d: bad dimensions", n)
		}
	}
}

func TestDecodeHeaderValidation(t *testing.T) {
	im := Gradient(8, 8)
	stream, _ := Encode(im, 0)

	bad := append([]byte(nil), stream...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrStreamHeader) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), stream...)
	bad[4], bad[5] = 0, 0 // W = 0
	if _, err := Decode(bad); !errors.Is(err, ErrStreamHeader) {
		t.Errorf("zero width: %v", err)
	}

	bad = append([]byte(nil), stream...)
	bad[8] = 9 // levels > 8
	if _, err := Decode(bad); !errors.Is(err, ErrStreamHeader) {
		t.Errorf("levels: %v", err)
	}

	bad = append([]byte(nil), stream...)
	bad[8] = 7 // more levels than 8x8 supports
	if _, err := Decode(bad); !errors.Is(err, ErrStreamHeader) {
		t.Errorf("levels vs size: %v", err)
	}

	bad = append([]byte(nil), stream...)
	bad[9] = 40 // maxPlane > 31
	if _, err := Decode(bad); !errors.Is(err, ErrStreamHeader) {
		t.Errorf("maxPlane: %v", err)
	}

	if _, err := Encode(NewImage(1, 1), 0); err != nil {
		t.Errorf("1x1 encode: %v", err)
	}
}

// TestQuickCodecLossless: arbitrary images round-trip exactly through
// the full embedded stream.
func TestQuickCodecLossless(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(40)
		h := 1 + r.Intn(40)
		im := NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = int32(r.Intn(256))
		}
		stream, err := Encode(im, r.Intn(5))
		if err != nil {
			return false
		}
		res, err := Decode(stream)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return res.Lossless && res.Image.Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTruncatedDecodeSafe: random prefixes of valid streams (and
// random corruptions of the body) decode without panicking and yield
// correctly sized images.
func TestQuickTruncatedDecodeSafe(t *testing.T) {
	im := Circles(32, 32)
	stream, _ := Encode(im, 0)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		frame := append([]byte(nil), stream[:headerLen+r.Intn(len(stream)-headerLen+1)]...)
		if len(frame) > headerLen && r.Intn(2) == 0 {
			frame[headerLen+r.Intn(len(frame)-headerLen)] ^= byte(1 + r.Intn(255))
		}
		res, err := Decode(frame)
		if err != nil {
			return true // rejected is fine; panicking is not
		}
		return res.Image.W == 32 && res.Image.H == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitIO(t *testing.T) {
	w := &bitWriter{}
	bits := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.writeBit(b)
	}
	if n := len(w.buf)*8 + int(w.nCur); n != len(bits) {
		t.Errorf("%d bits written", n)
	}
	r := &bitReader{buf: w.bytes()}
	for i, want := range bits {
		got, err := r.readBit()
		if err != nil || got != want {
			t.Fatalf("bit %d: %d, %v", i, got, err)
		}
	}

	// Gamma round trip.
	w = &bitWriter{}
	vals := []uint32{1, 2, 3, 4, 5, 100, 1000, 1 << 20, 1<<31 - 1}
	for _, v := range vals {
		w.writeGamma(v)
	}
	r = &bitReader{buf: w.bytes()}
	for _, want := range vals {
		got, err := r.readGamma()
		if err != nil || got != want {
			t.Fatalf("gamma %d: %d, %v", want, got, err)
		}
	}

	// Reading past the end errors.
	r = &bitReader{buf: nil}
	if _, err := r.readBit(); err == nil {
		t.Error("read past end should error")
	}
	if _, err := r.readGamma(); err == nil {
		t.Error("gamma past end should error")
	}
	// All-zero buffer: gamma sees >31 zeros and gives up.
	r = &bitReader{buf: make([]byte, 8)}
	if _, err := r.readGamma(); err == nil {
		t.Error("gamma over zeros should error")
	}

	defer func() {
		if recover() == nil {
			t.Error("writeGamma(0) should panic")
		}
	}()
	(&bitWriter{}).writeGamma(0)
}

func TestSketch(t *testing.T) {
	im := Medical(512, 512, 4)
	s := ExtractSketch(im, "chest scan, lesion upper-left quadrant")
	if s.W > SketchMaxDim || s.H > SketchMaxDim {
		t.Fatalf("sketch raster %dx%d too large", s.W, s.H)
	}
	if s.EdgeCount() == 0 {
		t.Fatal("medical image should have edges")
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// The headline claim: the sketch is orders of magnitude smaller
	// than the original (paper: up to 2000×; we require ≥ 500× for the
	// 512×512 corpus with its verbal tag included).
	ratio := float64(im.W*im.H) / float64(len(data))
	if ratio < 500 {
		t.Errorf("sketch ratio = %.0fx (sketch %d B), want >= 500x", ratio, len(data))
	}

	got, err := UnmarshalSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != s.W || got.H != s.H || got.Description != s.Description {
		t.Errorf("round trip header: %+v", got)
	}
	for i := range s.Edges {
		if got.Edges[i] != s.Edges[i] {
			t.Fatalf("edge bitmap differs at %d", i)
		}
	}

	// Flat image: no edges, still valid.
	flat := ExtractSketch(NewImage(100, 100), "")
	if flat.EdgeCount() != 0 {
		t.Error("flat image should have no edges")
	}
	d2, err := flat.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSketch(d2)
	if err != nil || back.EdgeCount() != 0 {
		t.Errorf("flat round trip: %v", err)
	}

	// Malformed inputs.
	for _, bad := range [][]byte{nil, []byte("SK01"), []byte("XX01\x04\x04\x00\x00")} {
		if _, err := UnmarshalSketch(bad); err == nil {
			t.Errorf("bad sketch %q decoded", bad)
		}
	}
	if _, err := (&Sketch{W: 300, H: 1}).Marshal(); err == nil {
		t.Error("oversized sketch should fail to marshal")
	}
	if _, err := (&Sketch{W: 2, H: 2, Edges: make([]bool, 3)}).Marshal(); err == nil {
		t.Error("wrong bitmap size should fail")
	}
	if _, err := (&Sketch{W: 2, H: 2, Edges: make([]bool, 4), Description: strings.Repeat("x", 1<<16)}).Marshal(); err == nil {
		t.Error("oversized description should fail")
	}
}

// TestQuickSketchRoundTrip: random bitmaps survive marshal/unmarshal.
func TestQuickSketchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(32)
		h := 1 + r.Intn(32)
		s := &Sketch{W: w, H: h, Edges: make([]bool, w*h), Description: randDesc(r)}
		for i := range s.Edges {
			s.Edges[i] = r.Intn(3) == 0
		}
		data, err := s.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalSketch(data)
		if err != nil || got.W != w || got.H != h || got.Description != s.Description {
			return false
		}
		for i := range s.Edges {
			if got.Edges[i] != s.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randDesc(r *rand.Rand) string {
	b := make([]byte, r.Intn(40))
	for i := range b {
		b[i] = byte(32 + r.Intn(95))
	}
	return string(b)
}
