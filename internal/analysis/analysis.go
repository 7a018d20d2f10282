// Package analysis implements reprolint: a small, dependency-free
// go/analysis-style framework that statically enforces this repo's two
// load-bearing contracts — the 0 allocs/ref hot loop and the
// byte-identical determinism of campaign output — plus the metrics
// discipline that keeps the observability layer off the hot path.
//
// The dynamic pins (AllocsPerRun, CI's 0 allocs/op bench assertion,
// jobs-determinism smokes) prove the contracts hold on the paths the
// tests exercise; these analyzers prove the *code shape* can't violate
// them, and fail in seconds with a file:line pointer instead of hours
// later with a diff.
//
// Everything is built on go/ast + go/types with stdlib go/importer
// loading (golang.org/x/tools is deliberately not a dependency), so the
// linter runs offline in the same container as the build.
package analysis

import (
	"go/token"
	"sort"
	"time"
)

// Diagnostic is one finding: a contract violation at a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Allowance is one //repro:allow marker that suppressed at least one
// diagnostic, with the count it absorbed. The driver reports these so
// suppressions stay visible instead of silent.
type Allowance struct {
	Pos    token.Position
	Reason string
	Count  int
}

// Analyzer is one named pass over a loaded Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Diagnostic
}

// All is the full reprolint suite in reporting order.
var All = []*Analyzer{HotPathAlloc, Determinism, ShardPurity, AtomicDiscipline, MetricsDiscipline, RecDiscipline, Devirt}

// Timing records one analyzer's wall-clock cost, so lint runtime is a
// tracked quantity (surfaced by the driver, guarded in CI) rather than
// an invisible tax that creeps up.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// Result is the outcome of an Analyze call: surviving diagnostics
// (position-sorted), the allowances that were exercised, marker grammar
// problems folded in as diagnostics, and per-analyzer timings.
type Result struct {
	Diags      []Diagnostic
	Allowances []Allowance
	Timings    []Timing
}

// Analyze runs the given analyzers (default: All) over the program,
// applies //repro:allow suppression, and flags stale allowances — an
// allow comment that suppresses nothing is dead weight that would hide
// a future regression, so it must be removed when the code it excused
// goes away.
func (p *Program) Analyze(analyzers ...*Analyzer) *Result {
	if len(analyzers) == 0 {
		analyzers = All
	}
	var raw []Diagnostic
	raw = append(raw, p.markers.diags...)
	res := &Result{}
	for _, a := range analyzers {
		start := time.Now()
		raw = append(raw, a.Run(p)...)
		res.Timings = append(res.Timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
	}

	for _, d := range raw {
		if m := p.markers.allowFor(d.Pos); m != nil {
			m.Used++
			continue
		}
		res.Diags = append(res.Diags, d)
	}
	for _, m := range p.markers.order {
		if m.Used > 0 {
			res.Allowances = append(res.Allowances, Allowance{Pos: m.Pos, Reason: m.Reason, Count: m.Used})
		} else {
			res.Diags = append(res.Diags, Diagnostic{
				Pos:      m.Pos,
				Analyzer: "markers",
				Message:  "stale //repro:allow: no diagnostic suppressed (remove it, or the excuse outlives the code)",
			})
		}
	}
	sortDiags(res.Diags)
	sort.Slice(res.Allowances, func(i, j int) bool {
		return posLess(res.Allowances[i].Pos, res.Allowances[j].Pos)
	})
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if !posEq(ds[i].Pos, ds[j].Pos) {
			return posLess(ds[i].Pos, ds[j].Pos)
		}
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func posEq(a, b token.Position) bool {
	return a.Filename == b.Filename && a.Line == b.Line && a.Column == b.Column
}
