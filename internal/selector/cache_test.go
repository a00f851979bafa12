package selector

import (
	"fmt"
	"sync"
	"testing"

	"adaptiveqos/internal/metrics"
)

func TestCacheCompileHitMiss(t *testing.T) {
	c := NewCache()
	src := `media == "image" and size <= 1024`

	s1, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("second compile of the same source should return the cached selector")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}
	if !s1.Matches(Attributes{"media": S("image"), "size": N(512)}) {
		t.Error("cached selector does not match")
	}
}

// Compile errors are cached (negative caching): a corrupt selector in a
// message flood costs one parse, then map lookups.
func TestCacheNegativeCaching(t *testing.T) {
	c := NewCache()
	if _, err := c.Compile(`media ==`); err == nil {
		t.Fatal("expected compile error")
	}
	if _, err := c.Compile(`media ==`); err == nil {
		t.Fatal("expected cached compile error")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want the error path to hit the cache", st)
	}
}

// The cache holds DefaultCacheCapacity entries however many distinct
// selectors it meets.
func TestCacheEviction(t *testing.T) {
	c := NewCache()
	for i := 0; i < DefaultCacheCapacity+500; i++ {
		if _, err := c.Compile(fmt.Sprintf(`size == %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != DefaultCacheCapacity || st.Misses != DefaultCacheCapacity+500 {
		t.Errorf("stats = %+v, want %d entries after %d first sightings", st, DefaultCacheCapacity, DefaultCacheCapacity+500)
	}
}

// An entry hit since the CLOCK hand last passed survives the sweep that
// makes room for a first sighting; the unreferenced entry after it is
// the one replaced.
func TestCacheClockSparesReferenced(t *testing.T) {
	c := NewCache()
	src := func(i int) string { return fmt.Sprintf(`size == %d`, i) }
	for i := 0; i < DefaultCacheCapacity; i++ {
		c.Compile(src(i))
	}
	c.Compile(src(0)) // the hand's first slot, referenced
	c.Compile(`size == -1`)
	if _, ok := c.entries[src(0)]; !ok {
		t.Error("the referenced entry was evicted")
	}
	if _, ok := c.entries[src(1)]; ok {
		t.Error("the unreferenced entry past the hand survived")
	}
	if c.entries[src(0)].ref.Load() {
		t.Error("the hand passed the referenced entry without clearing its bit")
	}
	if st := c.Stats(); st.Entries != DefaultCacheCapacity {
		t.Errorf("entries = %d, want %d", st.Entries, DefaultCacheCapacity)
	}
}

// Many goroutines compiling a mix of shared and distinct selectors into
// a full cache, so that sweeps evict while others hit, must be
// race-free and always receive a working selector (run under -race).
func TestCacheConcurrentCompile(t *testing.T) {
	c := NewCache()
	for i := 0; i < DefaultCacheCapacity; i++ {
		c.Compile(fmt.Sprintf(`nonce == %d`, i))
	}
	attrs := Attributes{"media": S("image"), "size": N(100)}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				shared, err := c.Compile(`media == "image"`)
				if err != nil {
					t.Error(err)
					return
				}
				if !shared.Matches(attrs) {
					t.Error("shared selector mismatch")
					return
				}
				own, err := c.CompileBytes([]byte(fmt.Sprintf(`size == %d or nonce == %d`, 100*(i%2), g*1000+i)))
				if err != nil {
					t.Error(err)
					return
				}
				if own.Matches(attrs) != (i%2 == 1) {
					t.Errorf("%s mismatch", own.Source())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 || st.Entries != DefaultCacheCapacity {
		t.Errorf("stats = %+v, want hits and a full cache", st)
	}
}

func TestCompileCachedDefault(t *testing.T) {
	s, err := CompileCached(`exists(cap.display)`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Matches(Attributes{"cap.display": B(true)}) {
		t.Error("default-cache selector mismatch")
	}
	if DefaultCache().Stats().Misses == 0 {
		t.Error("default cache saw no compiles")
	}

	// The default cache counts on the registry's counters, once per
	// lookup; a private cache moves neither.
	hits, misses := metrics.C(metrics.CtrSelectorCacheHit), metrics.C(metrics.CtrSelectorCacheMiss)
	st0, h0, m0 := DefaultCache().Stats(), hits.Load(), misses.Load()
	for i := 0; i < 3; i++ {
		CompileCached(`exists(cap.display)`)
	}
	CompileCached(fmt.Sprintf(`nonce == %d`, h0+m0)) // unseen in this process
	NewCache().Compile(`exists(cap.display)`)
	st1 := DefaultCache().Stats()
	if st1.Hits-st0.Hits != 3 || hits.Load()-h0 != 3 {
		t.Errorf("three hits moved Stats().Hits by %d and the registry by %d, want 3 and 3", st1.Hits-st0.Hits, hits.Load()-h0)
	}
	if st1.Misses-st0.Misses != 1 || misses.Load()-m0 != 1 {
		t.Errorf("one miss moved Stats().Misses by %d and the registry by %d, want 1 and 1", st1.Misses-st0.Misses, misses.Load()-m0)
	}
}

// CompileBytes is Compile for source text still in a receive buffer:
// the same entries, the same counters, and nothing kept of the buffer.
func TestCacheCompileBytes(t *testing.T) {
	c := NewCache()
	buf := []byte(`media == "image" and size <= 4096`)
	src := string(buf)
	first, err := c.CompileBytes(buf)
	if err != nil || first.Source() != src {
		t.Fatalf("CompileBytes: %v, %v", first, err)
	}
	for i := range buf {
		buf[i] = 'x' // the caller's buffer is its own again
	}
	if first.Source() != src {
		t.Error("compiled selector aliases the caller's buffer")
	}
	viaString, _ := c.Compile(src)
	viaBytes, _ := c.CompileBytes([]byte(src))
	if viaString != first || viaBytes != first {
		t.Error("Compile and CompileBytes must share one entry per source")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 2 hits, 1 entry", st)
	}
	// Errors are cached under the bytes too.
	if _, err := c.CompileBytes([]byte("media == ")); err == nil {
		t.Fatal("bad selector compiled")
	}
	if _, err := c.CompileBytes([]byte("media == ")); err == nil {
		t.Fatal("bad selector compiled from the negative entry")
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 3 {
		t.Errorf("stats after the bad selector = %+v, want 2 misses, 3 hits", st)
	}
}
