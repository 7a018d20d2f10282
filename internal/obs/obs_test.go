package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

// Nil metrics are no-op sinks: uninstrumented code paths publish into
// them unconditionally, so this is the contract the hot path relies on.
func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter loaded nonzero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Load() != 0 {
		t.Error("nil gauge loaded nonzero")
	}
	var h *Histogram
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("nil histogram recorded")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Error("nil histogram snapshot non-empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Histogram("z") != nil {
		t.Error("nil registry returned non-nil metric")
	}
	if n := r.Names(); n != nil {
		t.Errorf("nil registry names = %v", n)
	}
}

// Publishing must be allocation-free: the SoC hot loop bumps these per
// reference while holding the 0 allocs/ref contract.
func TestPublishZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var nilC *Counter
	if avg := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(2)
		h.Observe(1234)
		nilC.Inc()
		var batch HistogramBatch
		batch.Observe(99)
		h.AddBatch(&batch)
	}); avg != 0 {
		t.Errorf("publish allocated %.1f per op, want 0", avg)
	}
}

// A batch published with AddBatch must leave the histogram exactly as
// observing the same values one by one does, and empty the batch —
// also when the histogram is nil.
func TestHistogramAddBatch(t *testing.T) {
	var direct, batched Histogram
	var b HistogramBatch
	for i, v := range []uint64{0, 1, 2, 3, 64, 1 << 40, ^uint64(0), 7, 7} {
		direct.Observe(v)
		b.Observe(v)
		if i == 4 {
			batched.AddBatch(&b)
		}
	}
	batched.AddBatch(&b)
	if got, want := batched.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("batched snapshot %+v, want %+v", got, want)
	}
	if b != (HistogramBatch{}) {
		t.Error("AddBatch left the batch non-empty")
	}
	batched.AddBatch(&b)
	if batched.Count() != direct.Count() {
		t.Error("empty batch changed the histogram")
	}
	var nilH *Histogram
	b.Observe(5)
	nilH.AddBatch(&b)
	if b != (HistogramBatch{}) {
		t.Error("AddBatch on a nil histogram left the batch non-empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)  // bucket 0
	h.Observe(1)  // [1,1]
	h.Observe(2)  // [2,3]
	h.Observe(3)  // [2,3]
	h.Observe(64) // [64,127]
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 70 {
		t.Fatalf("count=%d sum=%d, want 5/70", s.Count, s.Sum)
	}
	if s.Mean != 14 {
		t.Errorf("mean = %g, want 14", s.Mean)
	}
	want := []HistogramBucket{
		{Lo: 0, Hi: 0, Count: 1},
		{Lo: 1, Hi: 1, Count: 1},
		{Lo: 2, Hi: 3, Count: 2},
		{Lo: 64, Hi: 127, Count: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
	// Top bucket: values with bit 63 set must not overflow the bound.
	var top Histogram
	top.Observe(^uint64(0))
	ts := top.Snapshot()
	if len(ts.Buckets) != 1 || ts.Buckets[0].Hi != ^uint64(0) {
		t.Errorf("top bucket = %+v", ts.Buckets)
	}
}

func TestRegistryIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("soc.refs")
	b := r.Counter("soc.refs")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	a.Inc()
	if b.Load() != 1 {
		t.Error("shared counter not shared")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("soc.refs")
}

func TestRegistrySnapshotJSONAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("b.gauge").Set(-2)
	r.Histogram("c.hist").Observe(5)

	if got, want := r.Names(), []string{"a.count", "b.gauge", "c.hist"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v, want %v", got, want)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, buf.String())
	}
	if snap.Counters["a.count"] != 3 || snap.Gauges["b.gauge"] != -2 {
		t.Errorf("snapshot = %+v", snap)
	}
	if h := snap.Histograms["c.hist"]; h.Count != 1 || h.Sum != 5 {
		t.Errorf("histogram snapshot = %+v", h)
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("handler status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content-type %q", ct)
	}
	var via Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &via); err != nil {
		t.Fatalf("handler body: %v", err)
	}
	if via.Counters["a.count"] != 3 {
		t.Errorf("handler snapshot = %+v", via)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
}

func TestProgressHumanAndJSON(t *testing.T) {
	var mu sync.Mutex
	done := uint64(0)
	sample := func() ProgressSample {
		mu.Lock()
		defer mu.Unlock()
		return ProgressSample{Done: done, Total: 1000, TasksDone: 1, TasksTotal: 4, Note: "busy 2"}
	}

	var human bytes.Buffer
	p := StartProgress(ProgressConfig{W: &human, Interval: 5 * time.Millisecond, Sample: sample})
	mu.Lock()
	done = 250
	mu.Unlock()
	time.Sleep(25 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	out := human.String()
	for _, want := range []string{"progress:", "refs", "25.0%", "tasks 1/4", "busy 2", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("human progress output missing %q:\n%s", want, out)
		}
	}

	var jsonBuf bytes.Buffer
	p = StartProgress(ProgressConfig{W: &jsonBuf, Interval: 5 * time.Millisecond, JSON: true, Sample: sample})
	time.Sleep(12 * time.Millisecond)
	p.Stop()
	sc := bufio.NewScanner(&jsonBuf)
	lines := 0
	sawFinal := false
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSON progress line %q: %v", sc.Text(), err)
		}
		if line["unit"] != "refs" || line["done"] != float64(250) {
			t.Errorf("line = %v", line)
		}
		if line["final"] == true {
			sawFinal = true
		}
		lines++
	}
	if lines == 0 || !sawFinal {
		t.Errorf("json progress: %d lines, final=%v", lines, sawFinal)
	}
}
