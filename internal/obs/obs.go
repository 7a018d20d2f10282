// Package obs is the observability layer: a fixed-registry,
// allocation-free metrics core that the simulator publishes into while
// it runs. The design constraint comes from the SoC hot path, which is
// pinned at 0 allocations per reference (soc.TestHotLoopZeroAllocs*):
// every metric is pre-registered before the run starts, publishing is a
// pointer-held atomic operation on a fixed cell, and the registry is
// only walked by readers (snapshots, progress lines, the /metrics
// endpoint) — never by publishers.
//
// All publish methods are nil-receiver safe: a nil *Counter, *Gauge or
// *Histogram is a no-op sink. Instrumented code therefore carries plain
// metric-bundle values whose zero value disables instrumentation — no
// per-call-site nil checks, no interface dispatch, no allocation either
// way.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter discards publishes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//repro:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//repro:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (worker occupancy, planned
// totals). The zero value is ready; a nil *Gauge discards publishes.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//repro:hotpath
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrement).
//
//repro:hotpath
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histogramBuckets is the fixed bucket count: bucket i holds values
// whose bit length is i, i.e. [2^(i-1), 2^i), with bucket 0 holding
// exactly zero. Power-of-two bucketing needs no configuration, covers
// the whole uint64 range, and turns Observe into one bits.Len64 plus
// one atomic add — cheap enough for per-event use on the hot path.
const histogramBuckets = 65

// Histogram counts observations in power-of-two buckets. The zero
// value is ready; a nil *Histogram discards publishes.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histogramBuckets]atomic.Uint64
}

// Observe records v.
//
//repro:hotpath
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// HistogramBatch accumulates observations in plain fields for one
// goroutine to publish into a Histogram with AddBatch — the hot loop's
// way to observe per event without an atomic per event. The zero value
// is an empty batch.
type HistogramBatch struct {
	count   uint64
	sum     uint64
	buckets [histogramBuckets]uint64
}

// Observe records v in the batch.
//
//repro:hotpath
func (b *HistogramBatch) Observe(v uint64) {
	b.count++
	b.sum += v
	b.buckets[bits.Len64(v)]++
}

// AddBatch publishes b's observations and empties b (also with a nil
// h). Like Observe it updates count first and buckets last, so a
// concurrent Snapshot still sees Σ buckets ≤ Count.
//
//repro:hotpath
func (h *Histogram) AddBatch(b *HistogramBatch) {
	if h != nil && b.count > 0 {
		h.count.Add(b.count)
		h.sum.Add(b.sum)
		for i, n := range b.buckets {
			if n > 0 {
				h.buckets[i].Add(n)
			}
		}
	}
	*b = HistogramBatch{}
}

// HistogramBucket is one populated histogram bucket in a snapshot:
// Count observations fell in [Lo, Hi].
type HistogramBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a histogram's point-in-time state: only
// populated buckets are materialized.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Mean    float64           `json:"mean"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram (reader side; allocates). Taken
// concurrently with Observe it is not a single atomic cut, but the
// load order preserves the invariant readers rely on: buckets are read
// first and count last, while Observe increments count first and its
// bucket last, so a mid-flight observation can be missing from the
// buckets yet present in Count — never the reverse. Σ buckets ≤ Count
// always holds (obs_race_test.go pins this under -race).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := HistogramBucket{Count: n}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			b.Hi = 1<<i - 1
			if i == histogramBuckets-1 {
				b.Hi = ^uint64(0)
			}
		}
		s.Buckets = append(s.Buckets, b)
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}
