package main

import (
	"fmt"
	"io"
	"slices"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything; minPairs is how many paired runs
// a claimed gain needs.
const (
	tailBeyond = 10
	minPairs   = 10
)

// quartiles returns the first, second and third quartile of xs by the
// same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the spreads printed here match those computed from the
// result lines by other tools. The second quartile is the median. One
// sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// tail returns the highest percentile of xs that has at least
// tailBeyond samples beyond it, with that percentile. With tailBeyond
// samples or fewer no percentile qualifies, and it returns the maximum
// as percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n <= tailBeyond {
		return d[n-1], 100
	}
	k := n - tailBeyond - 1
	return d[k], 100 * float64(k+1) / float64(n)
}

// worse is how much worse change reads than parent, as a share of
// parent, for a metric whose better direction is better ("lower" or
// "higher"); negative when change is better.
func worse(parent, change float64, better string) float64 {
	if parent == 0 {
		return 0
	}
	if better == "higher" {
		return (parent - change) / parent
	}
	return (change - parent) / parent
}

// withinBound reports whether change is no worse than parent by more
// than the metric's bound.
func withinBound(parent, change float64, m metricDef) bool {
	return worse(parent, change, m.Better) <= m.Bound
}

// Verdicts of compare.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within-bound"
)

// comparison is one metric on one workload across paired runs.
type comparison struct {
	parent, change [3]float64 // quartiles
	wins, pairs    int
	verdict        string
}

// compare judges paired runs of a parent and a change on one metric:
// run i of each side form a pair (the caller alternates which side runs
// first). The change gains when there are at least minPairs pairs, it
// wins at least nine tenths of them, ties counting for neither side, and
// the medians differ by more than the parent's own quartile distance. Otherwise, when either side's
// spread is wider than the bound the metric is unresolved, unless every
// change run reads better than every parent run; else it regresses when
// its median is worse than the parent's by more than the bound.
func compare(parent, change []float64, m metricDef) comparison {
	c := comparison{parent: quartiles(parent), change: quartiles(change)}
	c.pairs = min(len(parent), len(change))
	for i := 0; i < c.pairs; i++ {
		if worse(parent[i], change[i], m.Better) < 0 {
			c.wins++
		}
	}
	gap := c.change[1] - c.parent[1]
	if gap < 0 {
		gap = -gap
	}
	better := worse(c.parent[1], c.change[1], m.Better) < 0
	allBetter := len(parent) > 0 && len(change) > 0
	for _, p := range parent {
		for _, x := range change {
			allBetter = allBetter && worse(p, x, m.Better) < 0
		}
	}
	switch {
	case c.pairs >= minPairs && better && 10*c.wins >= 9*c.pairs && gap > c.parent[2]-c.parent[0]:
		c.verdict = verdictGain
	case allBetter:
		c.verdict = verdictWithin
	case spread(parent) > m.Bound || spread(change) > m.Bound:
		c.verdict = verdictUnresolved
	case !withinBound(c.parent[1], c.change[1], m):
		c.verdict = verdictRegression
	default:
		c.verdict = verdictWithin
	}
	return c
}

// compareRuns prints one line per (workload, end-to-end metric) pair
// found in both run sets and reports whether any regressed.
func compareRuns(w io.Writer, parent, change []record) (regressed bool) {
	for _, wl := range workloadNames() {
		for _, m := range endToEnd {
			p, c := series(parent, wl, m.Name), series(change, wl, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			r := compare(p, c, m)
			fmt.Fprintf(w, "%-17s %-11s parent %.6g [%.6g %.6g]  change %.6g [%.6g %.6g]  wins %d/%d  %s (bound %.0f%%)\n",
				wl, m.Name, r.parent[1], r.parent[0], r.parent[2],
				r.change[1], r.change[0], r.change[2], r.wins, r.pairs, r.verdict, 100*m.Bound)
			regressed = regressed || r.verdict == verdictRegression
		}
	}
	return regressed
}

// series collects one metric of one workload across untraced runs, in
// run order.
func series(runs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		if res, ok := r.Results[workload]; ok {
			if v, ok := res.Metrics[name]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}
