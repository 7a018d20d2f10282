package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Registry is a fixed set of named metrics. Registration happens once,
// at setup time, before the instrumented run starts (that is what keeps
// the hot path allocation-free: publishers hold *Counter/*Gauge/
// *Histogram pointers and never touch the registry); readers snapshot
// it concurrently at any time. Registration is idempotent — asking for
// an existing name returns the same metric, so independent subsystems
// sharing a registry accumulate into shared cells, which is exactly
// what a campaign of many SoC runs wants.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter registers (or fetches) the named counter. A nil registry
// returns nil — the no-op sink — so optional instrumentation needs no
// branching at the caller.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or fetches) the named gauge; nil registry → nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram registers (or fetches) the named histogram; nil → nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// checkName panics if name is already registered under a different
// metric kind — a programming error (two subsystems claiming one name
// as different types), caught at setup time, never during a run.
func (r *Registry) checkName(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	if _, ok := r.histograms[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
	}
}

// Snapshot is a point-in-time copy of every registered metric, ready
// for JSON. Counters and gauges are plain numbers; histograms carry
// their bucket breakdown.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Values are read metric by metric —
// the snapshot is not a single atomic cut across metrics, which is fine
// for progress/monitoring (each value is individually consistent).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Load()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for n, h := range r.histograms {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (map keys sort, so
// output is stable for a given state).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the JSON snapshot — the /metrics endpoint of the
// sweep's resident HTTP seam (expvar-style: one GET, whole state).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
