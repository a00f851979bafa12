package wavelet

import (
	"runtime"
	"sync"
)

// The coder's working set.  A bit-plane pass needs five w*h-sized
// tables that die when the call returns, plus a scan table that is a
// pure function of the geometry.  The tables are kept and the scan
// tables cached, so a steady stream of same-sized images allocates
// only what escapes to the caller.  Both are only ever sized by a
// geometry that passed CheckGeometry: nothing here is reachable from
// an unvalidated header.

// maxPixels bounds W*H for the encoder and the decoder alike.  Every
// table below is a small multiple of it, so a 10-byte header can ask
// for tens of megabytes at most, not gigabytes (W = H = 32768 fits the
// wire's uint16 fields).  It also keeps every coefficient index inside
// an int32.
const maxPixels = 1 << 22

// CheckGeometry reports whether a w×h plane is one the coder accepts.
func CheckGeometry(w, h int) bool {
	return w >= 1 && h >= 1 && w <= maxSide && h <= maxSide && w*h <= maxPixels
}

// scratch is one coder call's working set.  Indices are positions in
// the scan order.
type scratch struct {
	mag         []int32 // decoder: known magnitude bits
	sign        []int8  // decoder: -1, +1, or 0 (insignificant)
	significant []bool
	insig       []int32 // positions still insignificant, compacted each plane
	refine      []int32 // positions in the order they became significant
	code        []byte  // encoder: the bit writer's buffer
}

// scratchFree keeps idle working sets (~1 MB each), one per P at most:
// a sync.Pool would drop them at every GC, to be grown again.
var scratchFree struct {
	sync.Mutex
	sets []*scratch
}

// grow returns s resliced to n elements, reallocating when it is too
// small.  The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getScratch returns a working set for n coefficients: everything
// insignificant, refine empty with room for all n.  The decoder also
// gets zeroed mag and sign for the first kept positions of the scan,
// the only ones it reconstructs; the encoder (kept < 0) an empty code
// buffer.
func getScratch(n, kept int) *scratch {
	f := &scratchFree
	f.Lock()
	if len(f.sets) == 0 {
		f.sets = append(f.sets, new(scratch))
	}
	k := len(f.sets) - 1
	s := f.sets[k]
	f.sets[k], f.sets = nil, f.sets[:k]
	f.Unlock()
	s.significant = grow(s.significant, n)
	s.insig = grow(s.insig, n)
	s.refine = grow(s.refine, n)[:0]
	clear(s.significant)
	for i := range s.insig {
		s.insig[i] = int32(i)
	}
	if kept >= 0 {
		s.mag, s.sign = grow(s.mag, kept), grow(s.sign, kept)
		clear(s.mag)
		clear(s.sign)
	} else {
		s.code = grow(s.code, n)[:0]
	}
	return s
}

// putScratch keeps s for a later call, or leaves it to the GC.
func putScratch(s *scratch) {
	f := &scratchFree
	f.Lock()
	if len(f.sets) < runtime.GOMAXPROCS(0) {
		f.sets = append(f.sets, s)
	}
	f.Unlock()
}

// Scan tables.  scanCacheTables and scanCacheCoeffs bound what the
// cache retains (at most 8 tables, 8 MB); a table too large for the
// budget is built for the call and dropped.  Eviction is oldest-first:
// a session shares a handful of geometries, so anything smarter would
// be tuning for a workload that does not exist.
const (
	scanCacheTables = 8
	scanCacheCoeffs = 1 << 21
)

type scanEntry struct {
	w, h, levels int
	order        []int32
}

var scanCache struct {
	sync.Mutex
	entries []scanEntry // oldest first
	coeffs  int
}

// scanTable returns the read-only coarse-to-fine scan order for a
// validated geometry, from the cache when it is there.
func scanTable(w, h, levels int) []int32 {
	if w*h > scanCacheCoeffs {
		return buildScanOrder(w, h, levels)
	}
	c := &scanCache
	c.Lock()
	defer c.Unlock()
	for _, e := range c.entries {
		if e.w == w && e.h == h && e.levels == levels {
			return e.order
		}
	}
	order := buildScanOrder(w, h, levels)
	for len(c.entries) == scanCacheTables || c.coeffs+len(order) > scanCacheCoeffs {
		c.coeffs -= len(c.entries[0].order)
		c.entries[0] = scanEntry{}
		c.entries = c.entries[1:]
	}
	c.entries = append(c.entries, scanEntry{w, h, levels, order})
	c.coeffs += len(order)
	return order
}

// buildScanOrder lists coefficient indices coarse-to-fine: the deepest
// LL band first, then each level's HL, LH, HH from deepest to finest.
// Early stream prefixes therefore carry the visually dominant
// low-frequency content — the "sketch first, detail later" hierarchy.
func buildScanOrder(w, h, levels int) []int32 {
	order := make([]int32, 0, w*h)
	ws := make([]int, levels+1)
	hs := make([]int, levels+1)
	ws[0], hs[0] = w, h
	for lv := 1; lv <= levels; lv++ {
		ws[lv] = (ws[lv-1] + 1) / 2
		hs[lv] = (hs[lv-1] + 1) / 2
	}
	appendRect := func(x0, y0, x1, y1 int) {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				order = append(order, int32(y*w+x))
			}
		}
	}
	// Deepest LL.
	appendRect(0, 0, ws[levels], hs[levels])
	// Detail bands from deepest level outwards.
	for lv := levels; lv >= 1; lv-- {
		lw, lh := ws[lv], hs[lv]     // low sizes at this level
		pw, ph := ws[lv-1], hs[lv-1] // parent (full) sizes
		appendRect(lw, 0, pw, lh)    // HL (high in x)
		appendRect(0, lh, lw, ph)    // LH (high in y)
		appendRect(lw, lh, pw, ph)   // HH
	}
	return order
}
