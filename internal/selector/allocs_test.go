//go:build !race

package selector

import (
	"fmt"
	"testing"
)

// A hit allocates nothing, and a first sighting in a full cache costs
// its copy of the source, its compile (4 allocations here) and one
// entry, which takes the evicted entry's ring slot.
func TestCacheAllocs(t *testing.T) {
	const runs = 100
	c := NewCache()
	for i := 0; i < DefaultCacheCapacity; i++ {
		c.Compile(fmt.Sprintf("sub-t3 == true or nonce == %d", i))
	}
	cold := make([][]byte, runs+1)
	for i := range cold {
		cold[i] = []byte(fmt.Sprintf("sub-t3 == true or nonce == %d", DefaultCacheCapacity+i))
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		c.CompileBytes(cold[next])
		next++
	}); n > 6 {
		t.Errorf("a first sighting at capacity allocates %g times, want ≤ 6", n)
	}
	hot := []byte("sub-t3 == true or nonce == 0")
	c.CompileBytes(hot)
	if n := testing.AllocsPerRun(runs, func() { c.CompileBytes(hot) }); n != 0 {
		t.Errorf("a hit allocates %g times, want 0", n)
	}
}
