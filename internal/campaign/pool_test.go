package campaign

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runEach runs fn over [0, n) on a private pool of `workers`.
func runEach(ctx context.Context, workers, n int, fn func(i int)) {
	p := NewPool(workers)
	defer p.Close()
	p.each(ctx, n, fn)
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var counts [n]atomic.Int32
		runEach(context.Background(), workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachCtxCancelSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	runEach(ctx, 1, 10, func(i int) {
		ran = append(ran, i)
		if i == 2 {
			cancel()
		}
	})
	// The in-flight call completes; nothing after it starts.
	if len(ran) != 3 || ran[2] != 2 {
		t.Fatalf("ran %v, want [0 1 2]", ran)
	}
}

func TestForEachCtxCancelParallel(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var started [n]atomic.Int32
	var total atomic.Int32
	runEach(ctx, 4, n, func(i int) {
		started[i].Add(1)
		if total.Add(1) == 5 {
			cancel()
		}
	})
	// Every started index ran exactly once (never abandoned, never
	// repeated), and cancellation stopped the sweep well short of n.
	ran := 0
	for i := range started {
		switch started[i].Load() {
		case 0:
		case 1:
			ran++
		default:
			t.Fatalf("index %d ran %d times", i, started[i].Load())
		}
	}
	if int32(ran) != total.Load() {
		t.Fatalf("ran %d indices but counted %d", ran, total.Load())
	}
	// 4 workers were at most one call past the cancel trigger each.
	if ran < 5 || ran > 5+4 {
		t.Fatalf("cancellation let %d of %d calls run", ran, n)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int32{}
		runEach(ctx, workers, 50, func(int) { ran.Add(1) })
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: pre-cancelled context ran %d calls", workers, got)
		}
	}
}

// TestPoolBoundsSharedConcurrency: two sweeps running at once on one
// 2-worker pool never have more than 2 Exec calls in flight between
// them, and both finish with every cell.
func TestPoolBoundsSharedConcurrency(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var inFlight, peak atomic.Int32
	// OnResult runs inside Exec, on the worker executing the task; the
	// pause holds the slot so overlapping calls would show.
	hook := func(Task, Result) {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	}
	specs := []Spec{
		{Engines: []string{"aegis", "xom", "gi"}, Workloads: []string{"sequential", "firmware"}, Refs: []int{1000}},
		{Engines: []string{"vlsi", "ds5240", "xom"}, Workloads: []string{"sequential", "pointer-chase"}, Refs: []int{1000}},
	}
	reps := make([]*Report, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		r, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		r.OnResult(hook)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if reps[i], err = r.RunOn(context.Background(), p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("%d Exec calls in flight on a 2-worker pool", got)
	}
	for i, rep := range reps {
		if rep == nil || len(rep.Results) != specs[i].Size() {
			t.Fatalf("sweep %d did not finish every cell", i)
		}
		for _, res := range rep.Results {
			if res.Err != "" {
				t.Errorf("sweep %d: %s: %s", i, res.Key(), res.Err)
			}
		}
	}
}
