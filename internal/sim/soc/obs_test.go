package soc

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/sim/authtree"
	"repro/internal/sim/cache"
	"repro/internal/sim/trace"
)

// allocsPerRun is testing.AllocsPerRun with the collector parked for
// the duration of the measurement. AllocsPerRun reads the global
// MemStats.Mallocs delta, so a GC cycle landing inside the window
// attributes runtime-internal allocations to a loop that performs
// none — a known source of spurious nonzero readings in exactly the
// heap-size-sensitive way that makes it flake across unrelated edits.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Parking the pacer does not stop a concurrent cycle already in
	// flight; a blocking collection drains it before measuring.
	runtime.GC()
	return testing.AllocsPerRun(runs, f)
}

func instrumentedSystem(t *testing.T, reg *obs.Registry, twoLevel bool, rc *rec.Recorder) *SoC {
	t.Helper()
	ver, err := authtree.New(authtree.Config{
		Key:       []byte("0123456789abcdef"),
		LineBytes: 32,
		Regions: []authtree.Region{
			{Base: 0, Bytes: 1 << 20},
			{Base: 0x4000_0000, Bytes: 8 << 20},
		},
		NodeCacheBytes: 4 << 10,
		Variant:        authtree.CounterTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	ver.SetMetrics(authtree.NewMetrics(reg))
	ver.SetRecorder(rc)
	cfg := DefaultConfig()
	cfg.Recorder = rc
	if twoLevel {
		cfg.L2 = cache.Config{Size: 64 << 10, LineSize: 32, Ways: 8, WriteMode: cache.WriteBack}
	}
	cfg.Engine = fixedEngine{block: 16, readCost: 7, writeCost: 3}
	cfg.Verifier = ver
	cfg.Metrics = NewMetrics(reg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// obsTestRefs is the instrumented trace length, deliberately not a
// multiple of publishEvery.
const obsTestRefs = 20000

func obsTestSource() trace.RefSource {
	return trace.SequentialSource(trace.Config{
		Refs: obsTestRefs, Seed: 3, LoadFraction: 0.4, WriteFraction: 0.4,
		JumpRate: 0.02, Locality: 0.5,
	})
}

// The 0 allocs/ref contract must hold with the metrics registry
// installed: publishing is pointer-held atomics on pre-registered
// cells, so full instrumentation (SoC + both cache levels + hierarchy
// + tree verifier) adds no allocation to the hot loop.
func TestHotLoopZeroAllocsInstrumented(t *testing.T) {
	for _, tc := range []struct {
		name     string
		twoLevel bool
	}{
		{"single-level", false},
		{"two-level", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := instrumentedSystem(t, reg, tc.twoLevel, nil)
			src := obsTestSource()
			rep := s.Run(src) // warm DRAM pages, tag stores, node cache, buffers
			if rep.AuthStalls == 0 {
				t.Fatal("verifier charged no cycles; instrumented path not exercised")
			}
			if reg.Counter("soc.refs").Load() == 0 {
				t.Fatal("metrics did not publish; instrumentation not wired")
			}
			if avg := allocsPerRun(3, func() { s.Run(src) }); avg != 0 {
				t.Errorf("instrumented Run allocated %.1f times per 20k-ref run, want 0", avg)
			}
		})
	}
}

// hierTransfers replays src through a standalone hierarchy of s's
// geometry, end-of-run flush included, and counts the line transfers by
// [kind][crossed the chip]: the oracle for the hier.* counters.
func hierTransfers(t *testing.T, s *SoC, src trace.RefSource) (n [2][2]uint64) {
	t.Helper()
	levels := []*cache.Cache{}
	for _, cfg := range []cache.Config{s.cfg.Cache, s.cfg.L2} {
		if cfg.Size == 0 {
			continue
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, c)
	}
	h, err := cache.NewHierarchy(levels...)
	if err != nil {
		t.Fatal(err)
	}
	count := func(evs []cache.Event) {
		for _, ev := range evs {
			chip := 0
			if ev.PeerSlot < 0 {
				chip = 1
			}
			n[ev.Kind][chip]++
		}
	}
	src.Reset()
	for ref, ok := src.Next(); ok; ref, ok = src.Next() {
		_, evs := h.Access(ref.Addr, ref.Kind == trace.Store)
		count(evs)
	}
	count(h.Flush())
	return n
}

// The live metrics must agree with the Report the same run returns:
// the observable twin carries the same truth, just readable mid-run.
// The trace length is not a multiple of the publish cadence, so the
// end-of-run publish must carry the partial last batch.
func TestMetricsMirrorReport(t *testing.T) {
	if obsTestRefs%publishEvery == 0 {
		t.Fatalf("trace length %d is a multiple of the publish cadence %d", obsTestRefs, publishEvery)
	}
	for _, tc := range []struct {
		name     string
		twoLevel bool
	}{
		{"single-level", false},
		{"two-level", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := instrumentedSystem(t, reg, tc.twoLevel, nil)
			rep := s.Run(obsTestSource())
			if tc.twoLevel && rep.L2.Writebacks == 0 {
				t.Fatal("no L2 writebacks; the l2.* mirror is not exercised")
			}
			xfer := hierTransfers(t, s, obsTestSource())

			counters := map[string]uint64{
				"soc.refs":             rep.Refs,
				"soc.instructions":     rep.Instructions,
				"soc.cycles":           rep.Cycles,
				"soc.engine_lines":     rep.EngineLines,
				"soc.auth_stalls":      rep.AuthStalls,
				"soc.auth_violations":  rep.AuthViolations,
				"l1.hits":              rep.Cache.Hits,
				"l1.misses":            rep.Cache.Misses,
				"l1.evictions":         rep.Cache.Evictions,
				"l1.writebacks":        rep.Cache.Writebacks,
				"l2.hits":              rep.L2.Hits,
				"l2.misses":            rep.L2.Misses,
				"l2.evictions":         rep.L2.Evictions,
				"l2.writebacks":        rep.L2.Writebacks,
				"hier.fills":           xfer[cache.EvFill][0] + xfer[cache.EvFill][1],
				"hier.chip_fills":      xfer[cache.EvFill][1],
				"hier.writebacks":      xfer[cache.EvWriteback][0] + xfer[cache.EvWriteback][1],
				"hier.chip_writebacks": xfer[cache.EvWriteback][1],
			}
			for name, want := range counters {
				if got := reg.Counter(name).Load(); got != want {
					t.Errorf("%s = %d, want %d (report)", name, got, want)
				}
			}

			// Transfer histogram: one observation per costed line
			// transfer, i.e. per hierarchy event processed.
			h := reg.Histogram("soc.transfer_cycles").Snapshot()
			fills := reg.Counter("hier.fills").Load()
			wbs := reg.Counter("hier.writebacks").Load()
			if h.Count != fills+wbs {
				t.Errorf("transfer_cycles count %d != fills %d + writebacks %d", h.Count, fills, wbs)
			}
			var bucketed uint64
			for _, b := range h.Buckets {
				bucketed += b.Count
			}
			if bucketed != h.Count {
				t.Errorf("transfer_cycles buckets hold %d observations, count %d", bucketed, h.Count)
			}
			if h.Count == 0 || h.Sum == 0 {
				t.Error("transfer histogram empty on a missing workload")
			}
			// Chip-boundary transfers are a subset of all transfers.
			if cf := reg.Counter("hier.chip_fills").Load(); cf == 0 || cf > fills {
				t.Errorf("chip_fills = %d (fills %d)", cf, fills)
			}

			// A second system on a shared registry accumulates rather
			// than resets.
			before := reg.Counter("soc.refs").Load()
			s2 := instrumentedSystem(t, reg, tc.twoLevel, nil)
			s2.Run(obsTestSource())
			if got := reg.Counter("soc.refs").Load(); got != before+rep.Refs {
				t.Errorf("shared registry refs = %d, want %d", got, before+rep.Refs)
			}
		})
	}
}

// Each Report of a reused SoC covers its own run, while the live
// metrics accumulate over the SoC's life: after two runs on one
// registry every counter is the sum of both Reports.
func TestMetricsReusedSoC(t *testing.T) {
	reg := obs.NewRegistry()
	s := instrumentedSystem(t, reg, true, nil)
	first := s.Run(obsTestSource())
	second := s.Run(obsTestSource())
	for name, want := range map[string]uint64{
		"l1.hits":          first.Cache.Hits + second.Cache.Hits,
		"l1.misses":        first.Cache.Misses + second.Cache.Misses,
		"l2.hits":          first.L2.Hits + second.L2.Hits,
		"l2.misses":        first.L2.Misses + second.L2.Misses,
		"soc.refs":         first.Refs + second.Refs,
		"soc.cycles":       first.Cycles + second.Cycles,
		"soc.engine_lines": first.EngineLines + second.EngineLines,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d after two runs, want %d", name, got, want)
		}
	}
}

// liveRefsSource wraps a RefSource and, on every Next, reads the live
// soc.refs counter against the number of references already handed
// out (all of which the SoC has processed by then).
type liveRefsSource struct {
	trace.RefSource
	refs          *obs.Counter
	base, served  uint64
	ahead, behind uint64 // worst cases seen
	sawPartial    bool
}

func (l *liveRefsSource) Next() (trace.Ref, bool) {
	live := l.refs.Load() - l.base
	if live > l.served {
		l.ahead = max(l.ahead, live-l.served)
	} else {
		l.behind = max(l.behind, l.served-live)
	}
	if live > 0 && live < obsTestRefs {
		l.sawPartial = true
	}
	ref, ok := l.RefSource.Next()
	if ok {
		l.served++
	}
	return ref, ok
}

// A live reader of soc.refs mid-run never sees more references than
// the SoC has processed, and never falls more than one batch behind.
func TestMetricsLiveLag(t *testing.T) {
	reg := obs.NewRegistry()
	s := instrumentedSystem(t, reg, true, nil)
	for run := 0; run < 2; run++ {
		src := &liveRefsSource{RefSource: obsTestSource(), refs: reg.Counter("soc.refs"), base: reg.Counter("soc.refs").Load()}
		rep := s.Run(src)
		if rep.Refs != obsTestRefs || src.served != rep.Refs {
			t.Fatalf("run %d: %d refs served, report %d", run, src.served, rep.Refs)
		}
		if src.ahead > 0 {
			t.Errorf("run %d: soc.refs ran %d ahead of the processed count", run, src.ahead)
		}
		if src.behind >= publishEvery {
			t.Errorf("run %d: soc.refs lagged %d refs, want < %d", run, src.behind, publishEvery)
		}
		if !src.sawPartial {
			t.Errorf("run %d: no mid-run publish observed", run)
		}
	}
}

// An uninstrumented system (Config.Metrics nil) must behave
// identically: same Report, no metric traffic.
func TestNilMetricsIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	inst := instrumentedSystem(t, reg, true, nil)
	plainCfg := inst.cfg
	plainCfg.Metrics = nil
	plainCfg.Verifier = nil
	instCfg := inst.cfg
	instCfg.Verifier = nil

	a, err := New(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(instCfg)
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Run(obsTestSource())
	rb := b.Run(obsTestSource())
	if ra != rb {
		t.Errorf("instrumented report differs from uninstrumented:\n%+v\n%+v", rb, ra)
	}
}
