package campaign

import (
	"bytes"
	"strings"
	"testing"
)

// smallSpec is a fast multi-axis grid exercising engine sharing per
// point (3 engines), two workloads and two geometries.
func smallSpec() Spec {
	return Spec{
		Engines:    []string{"aegis", "xom", "ds5240"},
		Workloads:  []string{"sequential", "streaming"},
		Refs:       []int{3000},
		CacheSizes: []int{4 << 10, 16 << 10},
	}
}

// TestSweepDeterminism is the campaign's core contract: a -jobs 8 sweep
// emits bytes identical to -jobs 1, in every format.
func TestSweepDeterminism(t *testing.T) {
	emitAll := func(jobs int) map[string]string {
		rep, err := Sweep(smallSpec(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, format := range Formats {
			var buf bytes.Buffer
			if err := Emit(&buf, rep, format); err != nil {
				t.Fatalf("emit %s: %v", format, err)
			}
			out[format] = buf.String()
		}
		return out
	}
	seq := emitAll(1)
	par := emitAll(8)
	for _, format := range Formats {
		if seq[format] != par[format] {
			t.Errorf("%s output differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				format, seq[format], par[format])
		}
	}
	for _, res := range mustRun(t, smallSpec(), 8).Results {
		if res.Err != "" {
			t.Errorf("point %s failed: %s", res.Key(), res.Err)
		}
	}
}

// TestBaselineComputedOnce checks the result cache: with E engines at P
// engine-independent grid points, exactly P baselines are simulated and
// (E-1)*P lookups hit the cache.
func TestBaselineComputedOnce(t *testing.T) {
	spec := smallSpec()
	r, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run(8)
	engines := len(spec.Engines)
	points := len(rep.Results) / engines
	if got, want := r.store.BaselineRuns(), int64(points); got != want {
		t.Errorf("baseline simulations = %d, want %d (one per grid point)", got, want)
	}
	if got, want := r.store.BaselineHits(), int64((engines-1)*points); got != want {
		t.Errorf("baseline cache hits = %d, want %d", got, want)
	}
	// Shared baseline must mean shared cycle count: every engine at one
	// point reports the same BaseCycles.
	baseAt := make(map[string]uint64)
	for _, res := range rep.Results {
		pk := res.PointKey()
		if prev, ok := baseAt[pk]; ok && prev != res.BaseCycles {
			t.Errorf("point %s: baseline cycles differ across engines (%d vs %d)", pk, prev, res.BaseCycles)
		}
		baseAt[pk] = res.BaseCycles
	}

	// Re-running the same grid on the same runner resimulates nothing:
	// every task is served from the result cache.
	runs := r.store.ResultRuns()
	r.Run(8)
	if got := r.store.ResultRuns(); got != runs {
		t.Errorf("re-run executed %d new tasks, want 0", got-runs)
	}
}

// TestSeedSharing pins the determinism mechanics: the seed depends on
// the engine-independent point, not the engine, and distinct points get
// distinct seeds.
func TestSeedSharing(t *testing.T) {
	a := TaskConfig{Engine: "aegis", Workload: "sequential", Refs: 3000, CacheSize: 16 << 10, LineSize: 32, BusWidth: 4}
	b := a
	b.Engine = "xom"
	if a.Seed() != b.Seed() {
		t.Errorf("engines at the same point must share a trace seed: %d vs %d", a.Seed(), b.Seed())
	}
	c := a
	c.CacheSize = 4 << 10
	if a.Seed() == c.Seed() {
		t.Errorf("distinct geometries should shard to distinct seeds")
	}
	if a.Key() == b.Key() {
		t.Errorf("distinct engines must have distinct config keys")
	}
}

// TestBadPointFailsCellNotSweep: an engine whose granule does not
// divide the line size fails its own cells only.
func TestBadPointFailsCellNotSweep(t *testing.T) {
	spec := Spec{
		Engines:   []string{"aegis", "ds5240"}, // granules 16 and 8
		Workloads: []string{"streaming"},
		Refs:      []int{1000},
		LineSizes: []int{8}, // valid for ds5240, not for aegis
	}
	rep := mustRun(t, spec, 2)
	var failed, ok int
	for _, res := range rep.Results {
		if res.Err != "" {
			failed++
		} else {
			ok++
		}
	}
	if failed != 1 || ok != 1 {
		t.Errorf("want exactly the aegis cell to fail, got %d failed / %d ok", failed, ok)
	}
	for _, row := range rep.Summary {
		if row.Engine == "aegis" && row.Failed != 1 {
			t.Errorf("summary should count aegis's failed cell, got %d", row.Failed)
		}
	}
	// An engine that measured nothing must rank below one that did: a
	// zero mean from zero points is absence of data, not cheapness.
	last := rep.Summary[len(rep.Summary)-1]
	if last.Engine != "aegis" || last.Points != 0 {
		t.Errorf("zero-point engine should rank last, got %q (points=%d)", last.Engine, last.Points)
	}
}

func TestRunSuiteMatchesDirect(t *testing.T) {
	// E13 and E15 are trace-free and fast; the suite path must return
	// exactly what the registry runner returns, in the order asked.
	tables, err := RunSuite([]string{"E15", "e13"}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	if !strings.HasPrefix(tables[0].ID, "E15") || !strings.HasPrefix(tables[1].ID, "E13") {
		t.Errorf("suite order not preserved: got %s, %s", tables[0].ID, tables[1].ID)
	}
	if _, err := RunSuite([]string{"E99"}, 0, 1); err == nil {
		t.Error("unknown experiment id should error")
	}
}

func mustRun(t *testing.T, spec Spec, jobs int) *Report {
	t.Helper()
	rep, err := Sweep(spec, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The determinism contract must survive the active-adversary axis: the
// attack schedule is seed-derived per point, so a -jobs 8 sweep with
// authenticators and strikes enabled emits bytes identical to -jobs 1.
func TestSweepDeterminismWithAttacks(t *testing.T) {
	spec := func() Spec {
		return Spec{
			Engines:     []string{"aegis", "xom"},
			Workloads:   []string{"firmware"},
			Refs:        []int{8000},
			Auths:       []string{"none", "flat-mac", "tree", "ctree"},
			AttackRates: []float64{0, 8},
		}
	}
	emitAll := func(jobs int) map[string]string {
		rep, err := Sweep(spec(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, format := range Formats {
			var buf bytes.Buffer
			if err := Emit(&buf, rep, format); err != nil {
				t.Fatalf("emit %s: %v", format, err)
			}
			out[format] = buf.String()
		}
		return out
	}
	seq := emitAll(1)
	par := emitAll(8)
	for _, format := range Formats {
		if seq[format] != par[format] {
			t.Errorf("%s output differs between jobs=1 and jobs=8 with attacks enabled:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				format, seq[format], par[format])
		}
	}

	rep := mustRun(t, spec(), 8)
	var sawDetection, sawAuthStall bool
	for _, res := range rep.Results {
		if res.Err != "" {
			t.Errorf("point %s failed: %s", res.Key(), res.Err)
		}
		if res.Auth == "none" && (res.Violations != 0 || res.Detected != 0) {
			t.Errorf("auth=none point %s reports detections", res.Key())
		}
		if res.AttackRate == 0 && res.Injected != 0 {
			t.Errorf("rate=0 point %s reports injections", res.Key())
		}
		if res.Detected > 0 {
			sawDetection = true
		}
		if res.Auth != "none" && res.AuthStalls > 0 {
			sawAuthStall = true
		}
	}
	if !sawDetection {
		t.Error("no grid point detected any tamper; the attack axis is not exercising detection")
	}
	if !sawAuthStall {
		t.Error("no authenticated point charged verifier cycles")
	}
}

// The determinism contract must survive the hierarchy axes, and the
// sharing rules must hold: every placement at one (point, L2) shares a
// baseline, every L2 at one point shares a trace, and the cells whose
// placement needs an L2 that is not there fail alone.
func TestSweepDeterminismWithHierarchy(t *testing.T) {
	spec := func() Spec {
		return Spec{
			Engines:    []string{"aegis"},
			Workloads:  []string{"firmware"},
			Refs:       []int{6000},
			L2Sizes:    []int{0, 32 << 10},
			Placements: []string{"", "l1-l2", "l2-dram"},
		}
	}
	emitAll := func(jobs int) map[string]string {
		rep, err := Sweep(spec(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, format := range Formats {
			var buf bytes.Buffer
			if err := Emit(&buf, rep, format); err != nil {
				t.Fatalf("emit %s: %v", format, err)
			}
			out[format] = buf.String()
		}
		return out
	}
	seq := emitAll(1)
	par := emitAll(8)
	for _, format := range Formats {
		if seq[format] != par[format] {
			t.Errorf("%s output differs between jobs=1 and jobs=8 with hierarchy axes:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				format, seq[format], par[format])
		}
	}

	r, err := NewRunner(spec())
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run(8)
	baseAt := map[string]uint64{}
	var failedNoL2, okPoints int
	for _, res := range rep.Results {
		if res.L2Size == 0 && (res.Placement == "l1-l2" || res.Placement == "l2-dram") {
			if res.Err == "" {
				t.Errorf("point %s: L2 placement without an L2 did not fail", res.Key())
			}
			failedNoL2++
			continue
		}
		if res.Err != "" {
			t.Errorf("point %s failed: %s", res.Key(), res.Err)
			continue
		}
		okPoints++
		// One baseline per (point, hierarchy): same BaseCycles across
		// placements, different across L2 sizes (an L2 changes the
		// plaintext system).
		bk := res.BaselineKey()
		if prev, ok := baseAt[bk]; ok && prev != res.BaseCycles {
			t.Errorf("baseline %s: cycles differ across placements (%d vs %d)", bk, prev, res.BaseCycles)
		}
		baseAt[bk] = res.BaseCycles
	}
	if failedNoL2 != 2 {
		t.Errorf("expected exactly the 2 placement-without-L2 cells to fail, got %d", failedNoL2)
	}
	if len(baseAt) != 2 {
		t.Errorf("expected 2 distinct baselines (single-level + 32K L2), got %d", len(baseAt))
	}
	if got, want := r.store.BaselineRuns(), int64(2); got != want {
		t.Errorf("baseline simulations = %d, want %d (one per hierarchy)", got, want)
	}
	// The outer placement must actually be filtered relative to inner
	// at the 32K point — the sweep carries E22's argument.
	var inner, outer uint64
	for _, res := range rep.Results {
		if res.L2Size > 0 && res.Placement == "l1-l2" {
			inner = res.EngineLines
		}
		if res.L2Size > 0 && res.Placement == "l2-dram" {
			outer = res.EngineLines
		}
	}
	if inner == 0 || outer >= inner {
		t.Errorf("engine exposure not filtered: inner %d, outer %d", inner, outer)
	}
}
