package campaign

import (
	"context"
	"runtime"
	"sync"
)

// DefaultJobs is the worker count used when the caller passes jobs <= 0:
// one worker per available CPU.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) } //repro:allow the worker count only sets how many goroutines pull task indices; results are slotted by index

// Pool is a fixed set of worker goroutines fed closures in submission
// order. It is the campaign's only scheduling primitive: the sweep CLI
// and the suite run on a private pool, and the sweep service runs every
// admitted sweep on one shared pool, so however many sweeps are live,
// at most that many tasks execute at once. Callers write results into
// index i's slot, so the output is independent of completion order and
// a 1-worker run is byte-identical to an N-worker run.
type Pool struct {
	work chan func()
	wg   sync.WaitGroup
}

// NewPool starts a pool of `workers` goroutines (workers <= 0 means
// DefaultJobs). Close stops them.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultJobs()
	}
	p := &Pool{work: make(chan func())}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.work {
				fn()
			}
		}()
	}
	return p
}

// Close waits for the running closures and stops the workers. No each
// call may be in progress or follow it.
func (p *Pool) Close() {
	close(p.work)
	p.wg.Wait()
}

// each submits fn(i) for i in [0, n) to the pool in index order and
// returns once every submitted call has returned. Cancellation is
// task-granular: once ctx is done nothing more is submitted, a call
// that was queued but had not started is skipped, and a call already
// running completes normally — a task is never abandoned
// mid-simulation — so every index was either fully processed or never
// started, and the caller can mark the skipped slots cleanly (RunOn
// does).
func (p *Pool) each(ctx context.Context, n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n && ctx.Err() == nil; i++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			if ctx.Err() == nil {
				fn(i)
			}
		}
		select {
		case p.work <- task:
		case <-ctx.Done():
			wg.Done()
		}
	}
	wg.Wait()
}
