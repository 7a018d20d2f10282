package main

import (
	"math"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), whose values are listed here.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{2.5, 9.1, 3.3, 7.7, 1.0, 4.2, 8.8}, [3]float64{2.5, 4.2, 8.8}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
		if m := median(tc.xs); m != got[1] {
			t.Errorf("median(%v) = %v, want the second quartile %v", tc.xs, m, got[1])
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{1000, 990, 99},
		{100, 90, 90},
		{11, 1, 100.0 / 11},
		{10, 10, 100},
		{3, 3, 100},
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", tc.n, v, pct, tc.value, tc.pct)
		}
	}
}

func TestBoundCheck(t *testing.T) {
	lower := metricDef{Name: "op_min_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "pool_efficiency", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		m              metricDef
		parent, change float64
		ok             bool
	}{
		{lower, 100, 109, true},
		{lower, 100, 111, false},
		{lower, 100, 50, true},
		{higher, 100, 91, true},
		{higher, 100, 89, false},
		{higher, 100, 150, true},
	} {
		if got := withinBound(tc.parent, tc.change, tc.m); got != tc.ok {
			t.Errorf("%s %v -> %v: within bound %v, want %v", tc.m.Better, tc.parent, tc.change, got, tc.ok)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metricDef{Name: "op_min_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	// Nine wins in ten, medians 3% apart, parent quartiles 2 apart.
	nine := scale(steady, 0.97)
	nine[4] = 103
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster in every pair", steady, scale(steady, 0.8), verdictGain},
		{"nine wins in ten", steady, nine, verdictGain},
		{"slower past the bound", steady, scale(steady, 1.25), verdictRegression},
		{"slower within the bound", steady, scale(steady, 1.05), verdictWithin},
		{"spread wider than the bound", noisy, scale(noisy, 1.05), verdictUnresolved},
		{"noisy but better in every run", noisy, scale(steady, 0.5), verdictGain},
		{"too few pairs for a gain", steady[:5], scale(steady[:5], 0.8), verdictWithin},
	} {
		if got := compare(tc.parent, tc.change, m).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRunsFlagsRegression(t *testing.T) {
	run := func(v float64) record {
		return record{Results: map[string]result{
			"aegis-seq": {Metrics: map[string]metric{"op_min_ms": {Value: v, Unit: "ms"}}},
		}}
	}
	var parent, change []record
	for i := 0; i < 10; i++ {
		parent = append(parent, run(100+float64(i%3)))
		change = append(change, run(130+float64(i%3)))
	}
	var out strings.Builder
	if !compareRuns(&out, parent, change) {
		t.Fatalf("a 30%% slowdown did not regress:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "aegis-seq") || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("comparison line missing:\n%s", out.String())
	}
	out.Reset()
	if compareRuns(&out, parent, parent) {
		t.Errorf("identical runs regressed:\n%s", out.String())
	}
}
