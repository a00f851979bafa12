package dispatch

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

// Each must call fn exactly once per ID for every pool shape, and the
// inline (workers <= 1) and sharded paths must agree on semantics.
func TestEachCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 32} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(PoolConfig{Workers: workers})
			defer p.Close()
			ids := make([]string, 200)
			for i := range ids {
				ids[i] = fmt.Sprintf("client-%d", i)
			}
			var mu sync.Mutex
			seen := make(map[string]int)
			if err := p.Each(0, ids, func(id string) error {
				mu.Lock()
				seen[id]++
				mu.Unlock()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(ids) {
				t.Fatalf("saw %d ids, want %d", len(seen), len(ids))
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("id %s handled %d times", id, n)
				}
			}
		})
	}
}

// First-error-attempt-all: an error from one client must be reported
// without starving the remaining clients.
func TestEachFirstErrorAttemptAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(PoolConfig{Workers: workers})
			defer p.Close()
			ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
			boom := errors.New("boom")
			var handled atomic.Int64
			err := p.Each(0, ids, func(id string) error {
				handled.Add(1)
				if id == "c" || id == "f" {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if handled.Load() != int64(len(ids)) {
				t.Fatalf("handled %d of %d", handled.Load(), len(ids))
			}
		})
	}
}

// Per-client ordering: two sequential batches touching the same client
// must observe their submissions in order (same shard, FIFO queue,
// Each's completion barrier).
func TestEachPerClientOrdering(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 8})
	defer p.Close()
	ids := []string{"w1", "w2", "w3", "w4"}
	var mu sync.Mutex
	got := make(map[string][]int)
	for round := 0; round < 50; round++ {
		r := round
		if err := p.Each(0, ids, func(id string) error {
			mu.Lock()
			got[id] = append(got[id], r)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for id, rounds := range got {
		for i := 1; i < len(rounds); i++ {
			if rounds[i] < rounds[i-1] {
				t.Fatalf("client %s observed rounds out of order: %v", id, rounds)
			}
		}
	}
}

// backpressureRuns numbers TestEachBackpressureDropRecorded's runs.
var backpressureRuns atomic.Int32

// Backpressure: filling a bounded shard queue sheds the overflow with
// ErrQueueFull, a metrics counter tick (the aqos_dispatch_queue_drops
// exposition series) and a drop event in the obs event log.
func TestEachBackpressureDropRecorded(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	drops := metrics.C(metrics.CtrDispatchQueueDrops)
	dropsBefore := drops.Load()

	// The event log outlives a run (-count=2 reruns this test), so the
	// pool's name is this run's own and the count below reads only its
	// drops.
	name := fmt.Sprintf("bp-test-%d", backpressureRuns.Add(1))
	p := NewPool(PoolConfig{Name: name, Workers: 2, queueDepth: 1})
	defer p.Close()

	// All IDs hash to whatever shard they hash to; with one worker per
	// shard held hostage and depth 1, a large enough batch must
	// overflow at least one queue.
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
	}
	var handled atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.Each(7, ids, func(id string) error {
			once.Do(started.Done)
			<-release // every worker blocks until the queues overflow
			handled.Add(1)
			return nil
		})
	}()
	started.Wait() // at least one worker is inside fn, queues are filling
	// With every worker parked in fn and depth-1 queues, the enqueue
	// loop must shed; wait for the first recorded drop before letting
	// the workers drain so the overflow is guaranteed to have happened.
	for drops.Load() == dropsBefore {
		runtime.Gosched()
	}
	close(release)
	err := <-errCh
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	dropped := drops.Load() - dropsBefore
	if dropped == 0 {
		t.Fatal("no queue drops counted")
	}
	if got := handled.Load() + int64(dropped); got != int64(len(ids)) {
		t.Fatalf("handled %d + dropped %d != %d submitted", handled.Load(), dropped, len(ids))
	}
	// The event log holds the shed clients' drop events at the queue
	// stage, tagged with the batch's message identity.
	var traced int
	for _, ev := range obs.Events(0) {
		if ev.Kind == obs.EventDrop && ev.Stage == obs.StageQueue && ev.MsgID == 7 &&
			strings.HasPrefix(ev.Detail, "dispatch "+name+": ") {
			traced++
		}
	}
	if traced != int(dropped) {
		t.Fatalf("event log has %d queue-drop events, counter says %d", traced, dropped)
	}
}

// Close must drain in-flight batches, and Each after Close must fall
// back to inline execution rather than panic.
func TestPoolCloseSafety(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 4})
	var n atomic.Int64
	ids := []string{"a", "b", "c", "d", "e"}
	if err := p.Each(0, ids, func(string) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Each(0, ids, func(string) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 2*int64(len(ids)) {
		t.Fatalf("handled %d, want %d", n.Load(), 2*len(ids))
	}
}

// Concurrent batches from many goroutines must stay race-clean and
// fully covered (exercised under -race in CI).
func TestEachConcurrentBatches(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 4, queueDepth: 1024})
	defer p.Close()
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				p.Each(0, ids, func(string) error { total.Add(1); return nil })
			}
		}()
	}
	wg.Wait()
	if total.Load() != 8*25*int64(len(ids)) {
		t.Fatalf("total = %d, want %d", total.Load(), 8*25*len(ids))
	}
}
