package basestation

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The dispatch pool (which replaced the bespoke fanOut) must call fn
// exactly once per ID regardless of worker count, and must report the
// first error while still attempting every client.
func TestFanOutCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bs := newBareCell(t, workers, 0, 0).bs
			ids := make([]string, 100)
			for i := range ids {
				ids[i] = fmt.Sprintf("c%d", i)
			}
			var mu sync.Mutex
			seen := make(map[string]int)
			err := bs.pool.Each(0, ids, func(id string) error {
				mu.Lock()
				seen[id]++
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(ids) {
				t.Fatalf("fn saw %d distinct ids, want %d", len(seen), len(ids))
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("id %s handled %d times", id, n)
				}
			}
		})
	}
}

func TestFanOutErrorDoesNotStarvePeers(t *testing.T) {
	bs := newBareCell(t, 4, 0, 0).bs
	ids := []string{"a", "b", "c", "d", "e", "f"}
	boom := errors.New("boom")
	var handled atomic.Int64
	err := bs.pool.Each(0, ids, func(id string) error {
		handled.Add(1)
		if id == "b" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if handled.Load() != int64(len(ids)) {
		t.Fatalf("handled %d of %d: one failing peer starved the rest", handled.Load(), len(ids))
	}
}

func TestFanOutEmpty(t *testing.T) {
	bs := newBareCell(t, 4, 0, 0).bs
	if err := bs.pool.Each(0, nil, func(string) error {
		t.Error("fn called for empty id set")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
