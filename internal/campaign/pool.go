package campaign

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultJobs is the worker count used when the caller passes jobs <= 0:
// one worker per available CPU.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) } //repro:allow the worker count only sets how many goroutines pull task indices; results are slotted by index

// forEach runs fn(i) for i in [0, n) on a bounded pool of `jobs`
// goroutines pulling indices from a shared atomic counter. It is the
// campaign's only scheduling primitive: callers write results into
// index i's slot, so the output is independent of completion order and
// a jobs=1 run is byte-identical to a jobs=N run.
func forEach(jobs, n int, fn func(i int)) {
	forEachCtx(context.Background(), jobs, n, fn)
}

// forEachCtx is forEach with cooperative cancellation: once ctx is
// done, workers stop claiming new indices and return. An index whose
// fn is already running completes normally — a task is never abandoned
// mid-simulation — so after forEachCtx returns, every index was either
// fully processed or never started, and a caller can mark the skipped
// slots cleanly (Runner.RunContext does).
func forEachCtx(ctx context.Context, jobs, n int, fn func(i int)) {
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
