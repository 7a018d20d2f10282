package soc

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// The 0 allocs/ref contract must hold with the flight recorder
// installed on top of full metrics instrumentation: Emit writes one
// fixed-size record into a pre-allocated ring, so recording a fully
// verified two-level run adds no allocation to the hot loop.
func TestHotLoopZeroAllocsTraced(t *testing.T) {
	for _, tc := range []struct {
		name     string
		twoLevel bool
	}{
		{"single-level", false},
		{"two-level", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			rc := rec.New(1 << 12)
			s := instrumentedSystem(t, reg, tc.twoLevel, rc)
			src := obsTestSource()
			s.Run(src) // warm DRAM pages, tag stores, node cache, buffers
			if rc.Len() == 0 {
				t.Fatal("recorder captured nothing; tracing not wired")
			}
			if avg := allocsPerRun(3, func() { s.Run(src) }); avg != 0 {
				t.Errorf("traced Run allocated %.1f times per 20k-ref run, want 0", avg)
			}
		})
	}
}

// The recorded stream must agree with the Report and live metrics the
// same run produces: the trace is the same truth at event granularity.
func TestTraceMirrorsReport(t *testing.T) {
	reg := obs.NewRegistry()
	rc := rec.New(1 << 19)
	s := instrumentedSystem(t, reg, true, rc)
	rep := s.Run(obsTestSource())
	st := rc.Seal("soc")
	if st.Dropped != 0 {
		t.Fatalf("ring overflowed (%d dropped); grow the test capacity", st.Dropped)
	}
	if err := rec.Validate(&rec.Trace{Streams: []rec.Stream{st}}); err != nil {
		t.Fatal(err)
	}

	counts := make(map[rec.Kind]uint64)
	var lastCycle uint64
	for _, ev := range st.Events {
		counts[ev.Kind]++
		if ev.Cycle < lastCycle {
			t.Fatalf("seq %d: cycle stamp went backwards (%d after %d)", ev.Seq, ev.Cycle, lastCycle)
		}
		lastCycle = ev.Cycle
		if ev.Ref > rep.Refs {
			t.Fatalf("seq %d: ref stamp %d beyond run length %d", ev.Seq, ev.Ref, rep.Refs)
		}
	}

	if got := counts[rec.KindTrap]; got != rep.AuthViolations {
		t.Errorf("trap events = %d, report violations = %d", got, rep.AuthViolations)
	}
	for kind, metrics := range map[rec.Kind][]string{
		rec.KindVerify:    {"authtree.verified", "authtree.violations"},
		rec.KindNodeFetch: {"authtree.node_fetches"},
		rec.KindNodeHit:   {"authtree.node_hits"},
	} {
		var want uint64
		for _, name := range metrics {
			want += reg.Counter(name).Load()
		}
		if got := counts[kind]; got != want {
			t.Errorf("%v events = %d, tree counted %d %v", kind, got, want, metrics)
		}
	}
	// One closing transfer record per costed hierarchy event — the same
	// population the transfer-cycle histogram observes.
	h := reg.Histogram("soc.transfer_cycles").Snapshot()
	if got := counts[rec.KindFill] + counts[rec.KindWriteback]; got != h.Count {
		t.Errorf("transfer events = %d, histogram observed %d", got, h.Count)
	}
	if counts[rec.KindDecipher] == 0 || counts[rec.KindEncipher] == 0 {
		t.Error("no EDU events recorded on a line-encrypted system")
	}
}
