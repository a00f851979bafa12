// Package dispatch is the broker's delivery layer: the transmit
// adapters that give the wired multicast and per-client wireless
// unicast paths one interface (transmit.go; DESIGN.md §9), and a
// sharded worker pool with bounded queues and recorded backpressure,
// which runs a caller's function for each recipient of a message.  It
// knows nothing of media formats or radio physics: matching, tier
// inference and modality transforms are the broker's.  The base
// station serves its members itself, one after another; only the
// benchmark's ladder runs the Pool and a per-client Pipeline
// (pipeline.go; ROADMAP item 17).
package dispatch

import (
	"errors"
	"sync"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

// ErrQueueFull is reported (and the affected clients skipped) when a
// shard's bounded queue is full: the broker sheds the newest work for
// the overloaded shard rather than stalling the relay loop.  Every
// shed client is counted (CtrDispatchQueueDrops →
// aqos_dispatch_queue_drops) and recorded in the obs event log.
var ErrQueueFull = errors.New("dispatch: shard queue full")

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Name labels the pool in metrics and trace events.
	Name string
	// Workers is the shard count: each shard is one queue drained by
	// one worker goroutine, so work for a given client (which always
	// hashes to the same shard) is executed in submission order.
	// <= 1 runs every batch inline on the caller's goroutine.
	Workers int

	// queueDepth bounds each shard's queue (default 256); the package's
	// tests lower it.  A full queue sheds work: see ErrQueueFull.
	queueDepth int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Name == "" {
		c.Name = "dispatch"
	}
	if c.queueDepth <= 0 {
		c.queueDepth = 256
	}
	return c
}

// job is one unit of per-client work flowing through a shard queue.
type job struct {
	id  string
	fn  func(id string) error
	b   *batch
	qsp obs.Span // queue-wait span (enqueue → dequeue)
}

// batch tracks one Each call: outstanding jobs and the first error.
type batch struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstErr error
}

func (b *batch) setErr(err error) {
	b.mu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.mu.Unlock()
}

// Pool is a sharded worker pool.  Clients are routed to shards by ID
// hash, so per-client execution order follows submission order even
// across batches; distinct clients proceed in parallel across shards.
// The zero-worker configuration degrades to inline execution with the
// same semantics minus the concurrency.
type Pool struct {
	cfg    PoolConfig
	shards []chan job
	// The pool's counters exist from the first NewPool on, so a program
	// that runs no pool exports no aqos_dispatch_* family.
	ctrBatches, ctrJobs, ctrQueueDrops *metrics.Counter
	// batches recycles the batch a queued Each waits on: every job
	// points at it, so it escapes, and there is one per relayed message.
	batches sync.Pool

	mu     sync.RWMutex // guards shards against Close during Each
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts the pool's workers.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:           cfg,
		ctrBatches:    metrics.C(metrics.CtrDispatchBatches),
		ctrJobs:       metrics.C(metrics.CtrDispatchJobs),
		ctrQueueDrops: metrics.C(metrics.CtrDispatchQueueDrops),
	}
	if cfg.Workers > 1 {
		p.shards = make([]chan job, cfg.Workers)
		for i := range p.shards {
			p.shards[i] = make(chan job, cfg.queueDepth)
			p.wg.Add(1)
			go p.worker(p.shards[i])
		}
	}
	return p
}

// Close drains the shard queues and stops the workers.  Each calls
// racing with Close fall back to inline execution.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, sh := range p.shards {
		close(sh)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker(q chan job) {
	defer p.wg.Done()
	for j := range q {
		j.qsp.End()
		if err := j.fn(j.id); err != nil {
			j.b.setErr(err)
		}
		j.b.wg.Done()
	}
}

func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Each runs fn once per client ID and waits for completion, returning
// the first error while still attempting every client (one slow or
// failed peer must not starve the rest — the contract the old
// base-station fan-out established).  Work is routed to per-shard
// queues; a full shard queue sheds that client's job with a recorded
// drop and ErrQueueFull folded into the batch error.  msgID threads
// the message's trace identity into queue-wait spans and drop events.
func (p *Pool) Each(msgID uint64, ids []string, fn func(id string) error) error {
	p.ctrBatches.Inc()
	p.ctrJobs.Add(uint64(len(ids)))
	if len(ids) == 0 {
		return nil
	}
	// One queue hop per batch (not per client): the flight recorder
	// tracks the message's passage through the pool, the per-client
	// queue-wait latency is the span histogram's job.
	obs.AppendHop(msgID, p.cfg.Name, obs.StageQueue)
	// Single-client batches and worker-less pools run inline: the
	// relay loops process one message at a time, so ordering versus
	// queued work is preserved by Each's completion barrier.
	if len(p.shards) == 0 || len(ids) == 1 {
		var firstErr error
		for _, id := range ids {
			if err := fn(id); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		var firstErr error
		for _, id := range ids {
			if err := fn(id); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	b, _ := p.batches.Get().(*batch)
	if b == nil {
		b = new(batch)
	}
	b.wg.Add(len(ids))
	mask := uint32(len(p.shards))
	for _, id := range ids {
		sh := p.shards[fnv32a(id)%mask]
		select {
		case sh <- job{id: id, fn: fn, b: b, qsp: obs.StartStage(msgID, obs.StageQueue)}:
		default:
			b.wg.Done()
			p.ctrQueueDrops.Inc()
			if obs.Enabled() {
				obs.Drop(msgID, obs.StageQueue,
					"dispatch "+p.cfg.Name+": shard queue full, shedding "+id)
			}
			b.setErr(ErrQueueFull)
		}
	}
	p.mu.RUnlock()
	b.wg.Wait() // no job holds b past its Done
	err := b.firstErr
	b.firstErr = nil
	p.batches.Put(b)
	return err
}
