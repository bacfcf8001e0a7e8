package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed reports a submission to a pool after Close.
var ErrPoolClosed = errors.New("serve: worker pool is closed")

// Pool is a bounded worker pool: at most `workers` queries execute at
// once, and the job channel is unbuffered, so excess submitters wait
// in Do until a worker frees up or their context expires — natural
// backpressure instead of an unbounded queue.
type Pool struct {
	jobs chan poolJob
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	workers   int
	inFlight  atomic.Int64
	completed atomic.Int64
}

type poolJob struct {
	ctx  context.Context
	fn   func(context.Context) error
	done chan error
}

// NewPool starts a pool with the given worker count (min 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		jobs:    make(chan poolJob),
		quit:    make(chan struct{}),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.jobs:
			if err := j.ctx.Err(); err != nil {
				j.done <- err
				continue
			}
			p.inFlight.Add(1)
			err := j.fn(j.ctx)
			p.inFlight.Add(-1)
			p.completed.Add(1)
			j.done <- err
		case <-p.quit:
			return
		}
	}
}

// Do runs fn on a pool worker and waits for it, returning fn's error.
// If ctx expires before a worker picks the job up — or while fn runs —
// Do returns ctx.Err() immediately (fn itself is expected to observe
// the same ctx and abort). After Close, Do returns ErrPoolClosed.
func (p *Pool) Do(ctx context.Context, fn func(context.Context) error) error {
	j := poolJob{ctx: ctx, fn: fn, done: make(chan error, 1)}
	select {
	case p.jobs <- j:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.quit:
		return ErrPoolClosed
	}
	select {
	case err := <-j.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts the pool down gracefully: in-flight jobs run to
// completion, waiting submitters fail with ErrPoolClosed, and Close
// returns once every worker has exited. Idempotent.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// PoolStats is a point-in-time view of the pool's load, published at
// /metrics.
type PoolStats struct {
	Workers   int
	InFlight  int64
	Completed int64
}

// Stats reads the pool counters (lock-free).
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:   p.workers,
		InFlight:  p.inFlight.Load(),
		Completed: p.completed.Load(),
	}
}
