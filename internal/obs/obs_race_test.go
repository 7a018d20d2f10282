package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestHistogramBucketBoundaries audits the power-of-two bucketing at
// every edge: each boundary value must land in exactly one bucket
// whose [Lo, Hi] range contains it.
func TestHistogramBucketBoundaries(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 4, 7, 8, 15, 16}
	for exp := 5; exp <= 63; exp++ {
		v := uint64(1) << exp
		values = append(values, v-1, v, v+1)
	}
	values = append(values, ^uint64(0)-1, ^uint64(0))
	for _, v := range values {
		var h Histogram
		h.Observe(v)
		s := h.Snapshot()
		if s.Count != 1 || s.Sum != v {
			t.Fatalf("observe(%d): count=%d sum=%d", v, s.Count, s.Sum)
		}
		if len(s.Buckets) != 1 {
			t.Fatalf("observe(%d): %d buckets materialized: %+v", v, len(s.Buckets), s.Buckets)
		}
		b := s.Buckets[0]
		if v < b.Lo || v > b.Hi {
			t.Errorf("observe(%d): landed in [%d, %d]", v, b.Lo, b.Hi)
		}
		if b.Count != 1 {
			t.Errorf("observe(%d): bucket count %d", v, b.Count)
		}
	}
}

// TestHistogramAdjacentBucketsMeet checks the bucket lattice is exact:
// consecutive materialized buckets must tile the range with no gap and
// no overlap (Hi+1 == next Lo).
func TestHistogramAdjacentBucketsMeet(t *testing.T) {
	var h Histogram
	for exp := 0; exp <= 63; exp++ {
		h.Observe(uint64(1) << exp)
	}
	h.Observe(0)
	s := h.Snapshot()
	if len(s.Buckets) != 65 {
		t.Fatalf("%d buckets, want all 65", len(s.Buckets))
	}
	for i := 1; i < len(s.Buckets); i++ {
		prev, cur := s.Buckets[i-1], s.Buckets[i]
		if prev.Hi+1 != cur.Lo {
			t.Errorf("gap/overlap between [%d,%d] and [%d,%d]", prev.Lo, prev.Hi, cur.Lo, cur.Hi)
		}
	}
	if top := s.Buckets[len(s.Buckets)-1]; top.Hi != ^uint64(0) {
		t.Errorf("top bucket Hi = %d, want max uint64", top.Hi)
	}
}

// TestHistogramSnapshotNotTorn pins the concurrent-read invariant the
// fixed load order provides: a snapshot taken mid-publish may miss an
// in-flight observation's bucket, but it must never show more bucketed
// observations than Count (buckets read first, count read last, while
// Observe and AddBatch write count first and buckets last). Half the
// publishers observe one value at a time, half publish batches. Run
// under -race in CI.
func TestHistogramSnapshotNotTorn(t *testing.T) {
	var h Histogram
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64, batched bool) {
			defer wg.Done()
			var b HistogramBatch
			v := seed
			for !stop.Load() {
				v = v*6364136223846793005 + 1442695040888963407
				if !batched {
					h.Observe(v >> (v % 64))
					continue
				}
				b.Observe(v >> (v % 64))
				if v%7 == 0 {
					h.AddBatch(&b)
				}
			}
			h.AddBatch(&b)
		}(uint64(w+1), w%2 == 1)
	}
	for i := 0; i < 3000; i++ {
		s := h.Snapshot()
		var bucketed uint64
		for _, b := range s.Buckets {
			bucketed += b.Count
		}
		if bucketed > s.Count {
			t.Fatalf("torn snapshot: %d bucketed observations, count %d", bucketed, s.Count)
		}
	}
	stop.Store(true)
	wg.Wait()
	s := h.Snapshot()
	var bucketed uint64
	for _, b := range s.Buckets {
		bucketed += b.Count
	}
	if bucketed != s.Count {
		t.Errorf("quiescent snapshot inconsistent: %d bucketed, count %d", bucketed, s.Count)
	}
}

// TestRegistrySnapshotDuringHotLoop snapshots the whole registry —
// counters, gauges and histograms, the /metrics read path — while
// publisher goroutines run the hot-path publish pattern, asserting
// per-cell monotonicity and the histogram invariant on every read.
func TestRegistrySnapshotDuringHotLoop(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.refs")
	g := r.Gauge("hot.busy")
	h := r.Histogram("hot.cycles")
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); !stop.Load(); i++ {
				g.Add(1)
				c.Inc()
				h.Observe(i % (1 << 20))
				g.Add(-1)
			}
		}()
	}
	var lastCount uint64
	for i := 0; i < 2000; i++ {
		snap := r.Snapshot()
		if snap.Counters["hot.refs"] < lastCount {
			t.Fatalf("counter went backwards: %d after %d", snap.Counters["hot.refs"], lastCount)
		}
		lastCount = snap.Counters["hot.refs"]
		if busy := snap.Gauges["hot.busy"]; busy < 0 || busy > 4 {
			t.Fatalf("gauge outside [0,4]: %d", busy)
		}
		hs := snap.Histograms["hot.cycles"]
		var bucketed uint64
		for _, b := range hs.Buckets {
			bucketed += b.Count
		}
		if bucketed > hs.Count {
			t.Fatalf("torn histogram in registry snapshot: %d bucketed, count %d", bucketed, hs.Count)
		}
	}
	stop.Store(true)
	wg.Wait()
}
