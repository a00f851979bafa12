//go:build !race

package wavelet

import (
	"runtime"
	"testing"
)

// TestDecodeSteadyStateAllocs pins what one Decode of a 256×256 stream
// leaves for the collector once the pool and the scan cache are warm:
// the coefficient plane that becomes the raster (256 KB), the inverse
// transform's four line buffers and a few headers.  With per-call
// scratch and scan tables it was 4.6 MB in 80 allocations; it is 267 KB
// in 9.  Excluded under -race: the detector's instrumentation
// allocates.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	stream, err := Encode(Medical(256, 256, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := Decode(stream); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm
	if got := testing.AllocsPerRun(20, decode); got > 12 {
		t.Errorf("Decode allocates %.0f times per call, limit 12", got)
	}
	// One P while counting bytes: the pooled scratch sits in the pool's
	// per-P private slot, which another P cannot reach, so a migration
	// mid-loop buys a whole new scratch set (45 KB a call on average).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 280<<10 {
		t.Errorf("Decode allocates %d B per call, limit %d", got, 280<<10)
	}
}

// TestSketchDecodeSteadyStateAllocs pins the sketch tier's decode of the
// same 256×256 stream: DecodeLuma stopped at SketchMaxDim keeps
// magnitudes for the 32×32 scan prefix only and inverts nothing above
// it, so what escapes is the 4 KB band and the inverse transform's line
// buffers, not the 256 KB plane TestDecodeSteadyStateAllocs pins.
func TestSketchDecodeSteadyStateAllocs(t *testing.T) {
	stream, err := Encode(Medical(256, 256, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := DecodeLuma(stream, SketchMaxDim); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm
	if got := testing.AllocsPerRun(20, decode); got > 12 {
		t.Errorf("DecodeLuma(stream, SketchMaxDim) allocates %.0f times per call, limit 12", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see TestDecodeSteadyStateAllocs
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 8<<10 {
		t.Errorf("DecodeLuma(stream, SketchMaxDim) allocates %d B per call, limit %d", got, 8<<10)
	}
}
