package campaign

import (
	"reflect"
	"testing"
)

func TestSpecDefaultsAndSize(t *testing.T) {
	var s Spec
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Engines) != 8 {
		t.Errorf("default engines = %d, want all 8 surveyed", len(s.Engines))
	}
	if len(s.Workloads) != 6 {
		t.Errorf("default workloads = %d, want every registered generator", len(s.Workloads))
	}
	if got := s.Size(); got != len(s.Engines)*len(s.Workloads) {
		t.Errorf("Size = %d, want %d", got, len(s.Engines)*len(s.Workloads))
	}
}

func TestSpecValidateRejectsTypos(t *testing.T) {
	cases := []Spec{
		{Engines: []string{"aegsi"}},
		{Workloads: []string{"sequental"}},
		{Refs: []int{-1}},
		{CacheSizes: []int{0}},
		{LineSizes: []int{-32}},
		{BusWidths: []int{0}},
		{Auths: []string{"merkle"}},
		{AttackRates: []float64{-1}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec passed validation", i)
		}
	}
}

func TestExpandOrderIsStable(t *testing.T) {
	s := Spec{
		Engines:   []string{"xom", "aegis"},
		Workloads: []string{"streaming"},
		Refs:      []int{100, 200},
	}
	tasks := s.Expand()
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks, want 4", len(tasks))
	}
	want := []TaskConfig{
		{Engine: "xom", Auth: "none", Workload: "streaming", Refs: 100, CacheSize: 16 << 10, LineSize: 32, BusWidth: 4},
		{Engine: "xom", Auth: "none", Workload: "streaming", Refs: 200, CacheSize: 16 << 10, LineSize: 32, BusWidth: 4},
		{Engine: "aegis", Auth: "none", Workload: "streaming", Refs: 100, CacheSize: 16 << 10, LineSize: 32, BusWidth: 4},
		{Engine: "aegis", Auth: "none", Workload: "streaming", Refs: 200, CacheSize: 16 << 10, LineSize: 32, BusWidth: 4},
	}
	for i, task := range tasks {
		if task.Index != i {
			t.Errorf("task %d carries index %d", i, task.Index)
		}
		if task.Cfg != want[i] {
			t.Errorf("task %d = %+v, want %+v", i, task.Cfg, want[i])
		}
	}
}

func TestParseLists(t *testing.T) {
	if got := ParseList(" a, b ,,c "); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("ParseList = %v", got)
	}
	if got := ParseList("  "); got != nil {
		t.Errorf("empty ParseList = %v, want nil", got)
	}
	got, err := ParseIntList("4K,16k,1M,32")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{4 << 10, 16 << 10, 1 << 20, 32}) {
		t.Errorf("ParseIntList = %v", got)
	}
	for _, bad := range []string{
		"12Q",               // unknown suffix
		"9007199254740992K", // 2^53·2^10 = 2^63 overflows int
		"17592186044417M",   // (2^44+1)·2^20 wraps to 2^20 without a check
	} {
		if got, err := ParseIntList(bad); err == nil {
			t.Errorf("ParseIntList(%q) = %v, want error", bad, got)
		}
	}
}

func TestHashStability(t *testing.T) {
	// The seed derivation must be stable across processes and releases:
	// a change here silently invalidates every recorded sweep.
	cfg := TaskConfig{Engine: "aegis", Workload: "sequential", Refs: 60000, CacheSize: 16 << 10, LineSize: 32, BusWidth: 4}
	const wantKey = "engine=aegis auth=none attack=0 place=default l2=0 workload=sequential refs=60000 cache=16384 line=32 bus=4"
	if cfg.Key() != wantKey {
		t.Errorf("Key = %q, want %q", cfg.Key(), wantKey)
	}
	// The trace seed derives from PointKey, which the auth/attack/
	// placement/L2 axes deliberately do NOT touch: recorded sweeps keep
	// their traces, and every hierarchy depth at a point measures the
	// same reference stream.
	const wantPoint = "workload=sequential refs=60000 cache=16384 line=32 bus=4"
	if cfg.PointKey() != wantPoint {
		t.Errorf("PointKey = %q, want %q", cfg.PointKey(), wantPoint)
	}
	// A single-level task's baseline key equals its point key, so
	// pre-hierarchy sweeps reuse exactly the baselines they always did;
	// an L2 forks the baseline (its cycles differ) but not the trace.
	if cfg.BaselineKey() != wantPoint {
		t.Errorf("single-level BaselineKey = %q, want %q", cfg.BaselineKey(), wantPoint)
	}
	l2cfg := cfg
	l2cfg.L2Size = 64 << 10
	if l2cfg.BaselineKey() == cfg.BaselineKey() {
		t.Error("an L2 must fork the baseline key")
	}
	if l2cfg.Seed() != cfg.Seed() {
		t.Error("an L2 must not fork the trace seed")
	}
	if cfg.Hash() != hashString(wantKey) {
		t.Errorf("Hash does not match FNV-1a of Key")
	}
	if cfg.Seed() < 0 {
		t.Errorf("Seed must be non-negative, got %d", cfg.Seed())
	}
}
