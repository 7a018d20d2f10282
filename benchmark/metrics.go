package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it. Bound, the share
// of the parent's median by which the metric may worsen before a change
// counts as a regression, is set for end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them; an "op" is the
// workload's unit of user-visible work (README.md, "Workloads"). The
// op time is the fastest op of the run: medians, means and tails of op
// times follow how long the run spent in the host's slow spells, and do
// not repeat within any bound the benchmark format allows (README.md,
// "Noise").
var endToEnd = []metricDef{
	{Name: "op_min_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics. Every traced run measures the
// whole ladder, so each name is measured in every traced run whatever
// the workload; metrics of the simulator layers carry the workload whose
// system they were measured in. sz decides which experiments the survey
// pass runs.
func perLayer(sz sizes) []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("bench.clock_ns", "ns", "lower")
	add("bench.trace_overhead", "ratio", "lower")
	for _, c := range cryptoCases {
		add(c, "ns", "lower")
	}
	for _, w := range sims {
		p := w.name + "."
		if w.engine != "" {
			add(p+"edu.encrypt_line_ns", "ns", "lower")
			add(p+"edu.decrypt_line_ns", "ns", "lower")
			add(p+"edu.lines_per_ref", "1/ref", "lower")
			add(p+"edu.share", "ratio", "lower")
		}
		if w.auth != "" {
			add(p+"authtree.verify_read_ns", "ns", "lower")
			add(p+"authtree.update_write_ns", "ns", "lower")
			add(p+"authtree.reads_per_ref", "1/ref", "lower")
			add(p+"authtree.writes_per_ref", "1/ref", "lower")
			add(p+"authtree.share", "ratio", "lower")
		}
		add(p+"trace.next_ns", "ns", "lower")
		add(p+"trace.share", "ratio", "lower")
		add(p+"cache.access_ns", "ns", "lower")
		add(p+"cache.events_per_ref", "1/ref", "lower")
		add(p+"cache.l1_miss_ratio", "ratio", "lower")
		if w.l2 > 0 {
			add(p+"cache.l2_hit_ratio", "ratio", "higher")
		}
		add(p+"soc.self_ns_per_ref", "ns", "lower")
		add(p+"soc.model_gap", "ratio", "lower")
		if w.observed {
			add(p+"obs.tax_ns_per_ref", "ns", "lower")
		}
	}
	for _, e := range experiments(sz.surveyIDs) {
		add("core."+e.ID+"_s", "s", "lower")
	}
	add("campaign.pool_efficiency", "ratio", "higher")
	add("campaign.exec_fresh_ms", "ms", "lower")
	add("campaign.exec_hit_us", "us", "lower")
	add("campaign.memo_hit_ratio", "ratio", "higher")
	add("campaign.baseline_hit_ratio", "ratio", "higher")
	add("serve.post_ms", "ms", "lower")
	add("serve.stream_ms", "ms", "lower")
	add("serve.report_ms", "ms", "lower")
	add("serve.refetch_ms", "ms", "lower")
	add("serve.heap_mb", "MiB", "lower")
	add("serve.sweeps_retained", "count", "lower")
	return defs
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one single-workload run: its inputs, the operations it
// attempted and failed, and the metrics it measured.
type bench struct {
	seed    int64
	seconds float64
	sz      sizes
	defs    map[string]metricDef

	attempted, failed int
	metrics           map[string]metric
	// golden holds the pinned output digests that apply to this run;
	// first holds, per output key, the digest every later op must match.
	golden, first map[string]string
	// oracle caches the expected CSV of each sweep spec, keyed by its
	// JSON, across the ladder's campaign replay and serve session.
	oracle map[string][]byte
}

func newBench(seed int64, seconds float64, sz sizes, traced bool) *bench {
	b := &bench{
		seed: seed, seconds: seconds, sz: sz,
		defs:    make(map[string]metricDef),
		metrics: make(map[string]metric),
		golden:  make(map[string]string),
		first:   make(map[string]string),
		oracle:  make(map[string][]byte),
	}
	defs := endToEnd
	if traced {
		defs = perLayer(sz)
	}
	for _, d := range defs {
		b.defs[d.Name] = d
	}
	if sz.golden {
		for key, digest := range pinned {
			// The survey's inputs are fixed by the experiment registry;
			// the simulator workloads' come from the seed.
			if key == "survey" || seed == 1 {
				b.golden[key] = digest
			}
		}
	}
	return b
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
		}
	}
}

// same checks digest, the digest of one op's output under key, against
// the pinned digest where one applies and otherwise against the first
// op's.
func (b *bench) same(key, digest string) error {
	want, ok := b.first[key]
	if !ok {
		want = digest
		if g, pinned := b.golden[key]; pinned {
			want = g
		}
		b.first[key] = want
	}
	if digest != want {
		return fmt.Errorf("%s: output digest %s, want %s", key, digest, want)
	}
	return nil
}

// put records a metric; the name must be one this run reports.
func (b *bench) put(name string, v float64) {
	d, ok := b.defs[name]
	if !ok {
		panic("benchmark: unlisted metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.op(fmt.Errorf("%s: non-finite value %v", name, v))
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: d.Unit}
}

// result checks that every listed metric was measured and returns the
// run's result line.
func (b *bench) result() result {
	for name := range b.defs {
		if _, ok := b.metrics[name]; !ok {
			b.op(fmt.Errorf("metric %s not measured", name))
		}
	}
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
}

// count sizes an op count from the run length: perSecond ops for every
// second of --seconds, at least lo.
func (b *bench) count(perSecond float64, lo int) int {
	return max(lo, int(math.Round(b.seconds*perSecond)))
}

// more reports whether a timed loop that began at start and has run n
// ops runs another: until --seconds have passed, and at least lo ops.
func (b *bench) more(start time.Time, n, lo int) bool {
	return n < lo || time.Since(start).Seconds() < b.seconds
}

// putRSS records the process's peak resident set so far.
func (b *bench) putRSS() {
	mb, err := peakRSS()
	if err != nil {
		b.op(err)
		return
	}
	b.put("rss_mb", mb)
}

// peakRSS reads the process's peak resident set size (VmHWM) in MiB.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
