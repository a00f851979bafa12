//go:build !race

package media

import (
	"testing"

	"adaptiveqos/internal/wavelet"
)

// TestSketchTierAllocs: serving the sketch tier of a 256×256 share is
// the carried sketch wrapped as an object — its bytes and the object,
// two allocations — where the LL-band decode it replaced took 24.
// Excluded under -race: the detector's instrumentation allocates.
func TestSketchTierAllocs(t *testing.T) {
	gray, err := EncodeImage(wavelet.Medical(256, 256, 1), "gray scene")
	if err != nil {
		t.Fatal(err)
	}
	colour, err := EncodeColorImage(wavelet.ColorScene(256, 256, 6), "colour scene")
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []*Object{gray, colour} {
		if n := testing.AllocsPerRun(50, func() { ImageToSketch{}.Transform(obj) }); n != 2 {
			t.Errorf("%s: the sketch tier allocates %g times, want 2", obj, n)
		}
	}
}

// TestTransmodeRouteAllocs: a registry searches its path for a pair of
// kinds once; after that, deriving the sketch tier costs what the sketch
// transform allocates and nothing for the route (the search allocated
// twice on every call).
func TestTransmodeRouteAllocs(t *testing.T) {
	reg := DefaultRegistry()
	gray, err := EncodeImage(wavelet.Medical(64, 64, 1), "gray scene")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Transmode(gray, KindSketch); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { reg.Transmode(gray, KindSketch) }); n != 2 {
		t.Errorf("image -> sketch allocates %g times, want 2 (the sketch transform's)", n)
	}
}
