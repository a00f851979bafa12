package repair

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeStream is a hand-driven Gap source.
type fakeStream struct {
	mu     sync.Mutex
	wait   uint64
	parked int
}

func (f *fakeStream) Gap() (uint64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wait, f.parked
}

func (f *fakeStream) set(wait uint64, parked int) {
	f.mu.Lock()
	f.wait = wait
	f.parked = parked
	f.mu.Unlock()
}

// recorder captures engine callbacks.
type recorder struct {
	mu        sync.Mutex
	requests  []uint64 // afterSeq per request
	attempts  []int
	abandoned []uint64
	err       error
	onAbandon func(waitingFor uint64) // e.g. skip the fake stream
}

func (r *recorder) request(stream string, after uint64, attempt int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests = append(r.requests, after)
	r.attempts = append(r.attempts, attempt)
	return r.err
}

func (r *recorder) abandon(stream string, waitingFor uint64) {
	r.mu.Lock()
	r.abandoned = append(r.abandoned, waitingFor)
	hook := r.onAbandon
	r.mu.Unlock()
	if hook != nil {
		hook(waitingFor)
	}
}

func newTestEngine(rec *recorder, cfg Config) *Engine {
	return New(cfg, rec.request, rec.abandon)
}

func TestNoRequestBeforeStallTimeout(t *testing.T) {
	rec := &recorder{}
	e := newTestEngine(rec, Config{StallTimeout: 100 * time.Millisecond, JitterFrac: -1})
	s := &fakeStream{wait: 5, parked: 3}
	e.Watch("a", s)

	base := time.Unix(1000, 0)
	e.Poll(base)                            // first sighting of the stall
	e.Poll(base.Add(50 * time.Millisecond)) // not stalled long enough
	if n := len(rec.requests); n != 0 {
		t.Fatalf("requested before stall timeout: %d", n)
	}
	e.Poll(base.Add(110 * time.Millisecond))
	if n := len(rec.requests); n != 1 {
		t.Fatalf("requests = %d, want 1", n)
	}
	if rec.requests[0] != 4 {
		t.Errorf("afterSeq = %d, want 4 (waitingFor-1)", rec.requests[0])
	}
}

func TestIdleTailNeverRequests(t *testing.T) {
	rec := &recorder{}
	e := newTestEngine(rec, Config{StallTimeout: 10 * time.Millisecond, JitterFrac: -1})
	s := &fakeStream{wait: 7, parked: 0} // gap position but nothing parked
	e.Watch("a", s)
	base := time.Unix(1000, 0)
	for i := 0; i < 50; i++ {
		e.Poll(base.Add(time.Duration(i) * 10 * time.Millisecond))
	}
	if len(rec.requests) != 0 {
		t.Fatalf("idle tail must not trigger repair: %d requests", len(rec.requests))
	}
}

func TestBackoffScheduleAndAbandon(t *testing.T) {
	rec := &recorder{err: errors.New("request lost")}
	e := newTestEngine(rec, Config{
		StallTimeout: 100 * time.Millisecond,
		BaseBackoff:  100 * time.Millisecond,
		MaxBackoff:   time.Second,
		MaxRetries:   3,
		JitterFrac:   -1, // deterministic schedule
	})
	s := &fakeStream{wait: 10, parked: 2}
	// Abandoning skips the stream past the gap, like the real wiring.
	rec.onAbandon = func(w uint64) { s.set(w+1, 0) }
	e.Watch("a", s)

	base := time.Unix(1000, 0)
	e.Poll(base)
	// Walk simulated time forward in 10ms steps; with base backoff
	// 100ms doubling, requests land ~100ms, ~200ms, ~400ms after the
	// previous, then the gap is abandoned ~800ms later.
	for i := 1; i <= 200; i++ {
		e.Poll(base.Add(time.Duration(i) * 10 * time.Millisecond))
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.requests) != 3 {
		t.Fatalf("requests = %d, want 3 (the retry budget)", len(rec.requests))
	}
	for i, a := range rec.attempts {
		if a != i+1 {
			t.Errorf("attempt %d numbered %d", i, a)
		}
	}
	if len(rec.abandoned) != 1 || rec.abandoned[0] != 10 {
		t.Fatalf("abandoned = %v, want [10]", rec.abandoned)
	}
}

func TestProgressResetsAttempts(t *testing.T) {
	rec := &recorder{}
	e := newTestEngine(rec, Config{
		StallTimeout: 100 * time.Millisecond,
		BaseBackoff:  100 * time.Millisecond,
		MaxRetries:   2,
		JitterFrac:   -1,
	})
	s := &fakeStream{wait: 3, parked: 1}
	e.Watch("a", s)

	base := time.Unix(1000, 0)
	e.Poll(base)
	e.Poll(base.Add(110 * time.Millisecond)) // request 1 for gap at 3
	if len(rec.requests) != 1 {
		t.Fatalf("requests = %d, want 1", len(rec.requests))
	}
	// The gap fills (replay landed): waitingFor advances, a new gap
	// appears later; the attempt counter must restart.
	s.set(8, 1)
	e.Poll(base.Add(200 * time.Millisecond))
	st := e.Status()["a"]
	if st.Repaired != 1 {
		t.Errorf("repaired = %d, want 1", st.Repaired)
	}
	if st.Attempts != 0 {
		t.Errorf("attempts = %d, want 0 after progress", st.Attempts)
	}
	// New gap stalls → fresh request cycle starting at attempt 1.
	e.Poll(base.Add(310 * time.Millisecond))
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.requests) != 2 || rec.attempts[1] != 1 {
		t.Fatalf("requests = %v attempts = %v, want a fresh attempt 1", rec.requests, rec.attempts)
	}
	if rec.requests[1] != 7 {
		t.Errorf("second request afterSeq = %d, want 7", rec.requests[1])
	}
}

func TestJitterSpreadsBackoffDeterministically(t *testing.T) {
	// Same seed → same schedule; different seeds → (almost surely)
	// different schedules.
	schedule := func(seed int64) []time.Duration {
		e := New(Config{
			StallTimeout: 100 * time.Millisecond,
			BaseBackoff:  100 * time.Millisecond,
			JitterFrac:   0.5,
			Seed:         seed,
		}, func(string, uint64, int) error { return nil }, nil)
		var out []time.Duration
		for i := 1; i <= 4; i++ {
			out = append(out, e.backoffLocked(i))
		}
		return out
	}
	a1, a2, b := schedule(7), schedule(7), schedule(8)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged: %v vs %v", a1, a2)
		}
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical jitter: %v", a1)
	}
	// Jitter must stay within ±50% of the deterministic backoff.
	det := []time.Duration{100, 200, 400, 800}
	for i, d := range a1 {
		base := det[i] * time.Millisecond
		if d < base/2 || d > base*3/2 {
			t.Errorf("backoff %d = %v outside ±50%% of %v", i+1, d, base)
		}
	}
}
