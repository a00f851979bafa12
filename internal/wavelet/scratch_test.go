package wavelet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestStreamsAndRastersGolden pins the coder's output bytes: every
// stream, and the raster, bit count and flags decoded from five of its
// prefixes, over both filters, three depths and seven geometries, plus
// one colour stream.  The digest was taken from the coder as it stood
// before its scratch tables were pooled and its scan tables cached.
func TestStreamsAndRastersGolden(t *testing.T) {
	const want = "845662321a8bd6ac772f52e95eb2eeb631ca31590d1ce4e64acaf0f1d026515e"
	h := sha256.New()
	ims := []*Image{Medical(256, 256, 1), Blocks(100, 37, 8, 2), Circles(64, 64), Noise(33, 17, 4),
		Gradient(1, 64), Gradient(5, 1), Medical(256, 256, 3)}
	for _, im := range ims {
		for _, f := range []Filter{Filter53, FilterHaar} {
			for _, lv := range []int{0, 1, 3} {
				s, err := EncodeFilter(im, lv, f)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(s)
				for _, n := range []int{len(s), len(s) / 2, len(s) / 7, 12, 10} {
					r, err := Decode(s[:min(max(n, headerLen), len(s))])
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range r.Image.Pix {
						h.Write([]byte{byte(p), byte(p >> 8)})
					}
					fmt.Fprint(h, r.BitsUsed, r.Lossless, r.PlanesDecoded)
				}
			}
		}
	}
	s, err := EncodeColor(ColorScene(96, 64, 3), 0, Filter53)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(s)
	for _, n := range []int{len(s), len(s) / 2, len(s) / 5, 30} {
		r, err := DecodeColor(s[:n])
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.Image.R {
			h.Write([]byte{byte(r.Image.R[i]), byte(r.Image.G[i]), byte(r.Image.B[i])})
		}
		fmt.Fprint(h, r.Lossless, r.PlanesPresent)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("coder output digest %s, want %s", got, want)
	}
}

// TestConcurrentCodingMatchesSerial shares the scratch pool and the
// scan-table cache between goroutines coding different geometries
// (more of them than the cache holds, so it evicts while they run):
// every stream and raster must equal the serial run's.
func TestConcurrentCodingMatchesSerial(t *testing.T) {
	type job struct {
		gray   *Image
		color  *ColorImage
		stream []byte
	}
	var jobs []*job
	for i := 0; i < scanCacheTables+4; i++ {
		w, h := 16+5*i, 40-3*i
		jobs = append(jobs, &job{gray: Medical(w, h, int64(i))}, &job{color: ColorScene(h, w, int64(i))})
	}
	encode := func(j *job) []byte {
		var s []byte
		var err error
		if j.gray != nil {
			s, err = Encode(j.gray, 0)
		} else {
			s, err = EncodeColor(j.color, 0, FilterHaar)
		}
		if err != nil {
			t.Error(err)
		}
		return s
	}
	decodesTo := func(j *job, s []byte) bool {
		if j.gray != nil {
			res, err := Decode(s)
			return err == nil && res.Lossless && res.Image.Equal(j.gray)
		}
		res, err := DecodeColor(s)
		return err == nil && res.Lossless && res.Image.Equal(j.color)
	}
	for _, j := range jobs {
		j.stream = encode(j)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+g*3)%len(jobs)]
				if s := encode(j); !bytes.Equal(s, j.stream) {
					t.Errorf("goroutine %d: concurrent stream differs from the serial one", g)
				}
				if !decodesTo(j, j.stream) {
					t.Errorf("goroutine %d: concurrent decode differs from the original", g)
				}
			}
		}(g)
	}
	wg.Wait()

	scanCache.Lock()
	defer scanCache.Unlock()
	held := 0
	for _, e := range scanCache.entries {
		held += len(e.order)
	}
	if n := len(scanCache.entries); n > scanCacheTables || held != scanCache.coeffs || held > scanCacheCoeffs {
		t.Errorf("scan cache holds %d tables, %d coefficients (accounted %d): over its bounds", n, held, scanCache.coeffs)
	}
}

// header builds a stream header for a w×h plane.
func header(w, h, levels, maxPlane int) []byte {
	b := append([]byte(nil), streamMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(w))
	b = binary.BigEndian.AppendUint16(b, uint16(h))
	return append(b, byte(levels), byte(maxPlane))
}

// TestPixelBound: the geometry check refuses, with an error and before
// anything is sized by it, a plane whose sides fit the wire but whose
// area does not.
func TestPixelBound(t *testing.T) {
	for _, g := range [][2]int{{maxSide, maxSide}, {maxSide, maxPixels/maxSide + 1}, {2049, 2048}} {
		if _, err := Decode(header(g[0], g[1], 8, 31)); !errors.Is(err, ErrStreamHeader) {
			t.Errorf("decode %dx%d header: %v, want ErrStreamHeader", g[0], g[1], err)
		}
		// W, H and an empty raster: the check must come before any use.
		if _, err := Encode(&Image{W: g[0], H: g[1]}, 0); !errors.Is(err, ErrImageSize) {
			t.Errorf("encode %dx%d: %v, want ErrImageSize", g[0], g[1], err)
		}
	}
	// The largest admitted strip still decodes (to a blank raster).
	res, err := Decode(header(maxSide, maxPixels/maxSide, 7, 0))
	if err != nil || len(res.Image.Pix) != maxPixels {
		t.Errorf("decode at the bound: %v", err)
	}
	// A table too large for the cache's budget is built, used and not kept.
	scanCache.Lock()
	defer scanCache.Unlock()
	for _, e := range scanCache.entries {
		if len(e.order) > scanCacheCoeffs {
			t.Errorf("scan cache kept a %dx%d table", e.w, e.h)
		}
	}
}
