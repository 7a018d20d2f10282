package soc

import (
	"repro/internal/obs"
	"repro/internal/sim/cache"
)

// publishEvery is the live-metrics cadence in references: the hot loop
// tallies into plain fields and publishes the deltas every publishEvery
// references and once more at the end of Run, so a live reader lags the
// simulation by at most one batch and the end-of-run totals are exact.
const publishEvery = 4096

// Metrics is the SoC's live instrumentation bundle: pre-registered obs
// metrics the SoC publishes into with zero allocations. A nil
// *Config.Metrics (the default) runs the loop with the zero-value
// bundle — every publish is a nil-receiver no-op — so instrumentation
// is strictly additive: same simulation, same Report, same 0 allocs/ref.
//
// Counters are cumulative across runs and across every SoC sharing the
// bundle: the campaign installs one bundle on all its workers' systems,
// and the progress reporter reads whole-sweep refs/sec from it.
type Metrics struct {
	// Refs counts processed references — the progress/ETA signal.
	Refs *obs.Counter
	// Instructions counts fetch references.
	Instructions *obs.Counter
	// Cycles accumulates simulated cycles (refs/cycle rates derive
	// from the Refs/Cycles pair).
	Cycles *obs.Counter
	// EngineLines counts line transfers crossing the EDU boundary
	// (Report.EngineLines, live).
	EngineLines *obs.Counter
	// AuthStalls / AuthViolations are the verifier-side stall cycles
	// and fail-stop events (Report.AuthStalls/AuthViolations, live).
	AuthStalls     *obs.Counter
	AuthViolations *obs.Counter
	// TransferCycles is the per-line-transfer cost distribution
	// (power-of-two buckets): fills and writebacks at every boundary,
	// including verifier walks — the shape of the miss-path tail.
	TransferCycles *obs.Histogram
	// L1/L2 mirror each cache level's Stats.
	L1, L2 LevelMetrics
	// Fills/Writebacks count every line transfer between hierarchy
	// levels; ChipFills/ChipWritebacks the subset that crossed the chip
	// boundary (external bus traffic).
	Fills, Writebacks, ChipFills, ChipWritebacks *obs.Counter
}

// LevelMetrics mirrors one cache level's hit/miss/eviction/writeback
// counters (cache.Stats).
type LevelMetrics struct {
	Hits, Misses, Evictions, Writebacks *obs.Counter
}

// NewMetrics registers the SoC metric inventory on r (see DESIGN.md §8
// for the name list) and returns the bundle to place in Config.Metrics.
// Registration is idempotent: bundles from the same registry share
// cells, which is how a whole campaign accumulates into one view.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Refs:           r.Counter("soc.refs"),
		Instructions:   r.Counter("soc.instructions"),
		Cycles:         r.Counter("soc.cycles"),
		EngineLines:    r.Counter("soc.engine_lines"),
		AuthStalls:     r.Counter("soc.auth_stalls"),
		AuthViolations: r.Counter("soc.auth_violations"),
		TransferCycles: r.Histogram("soc.transfer_cycles"),
		L1:             newLevelMetrics(r, "l1"),
		L2:             newLevelMetrics(r, "l2"),
		Fills:          r.Counter("hier.fills"),
		Writebacks:     r.Counter("hier.writebacks"),
		ChipFills:      r.Counter("hier.chip_fills"),
		ChipWritebacks: r.Counter("hier.chip_writebacks"),
	}
}

// newLevelMetrics registers a level's counters under prefix ("l1" →
// "l1.hits", "l1.misses", "l1.evictions", "l1.writebacks").
func newLevelMetrics(r *obs.Registry, prefix string) LevelMetrics {
	return LevelMetrics{
		Hits:       r.Counter(prefix + ".hits"),
		Misses:     r.Counter(prefix + ".misses"),
		Evictions:  r.Counter(prefix + ".evictions"),
		Writebacks: r.Counter(prefix + ".writebacks"),
	}
}

// add publishes the difference between two snapshots of a level's Stats.
func (m LevelMetrics) add(now, last cache.Stats) {
	m.Hits.Add(now.Hits - last.Hits)
	m.Misses.Add(now.Misses - last.Misses)
	m.Evictions.Add(now.Evictions - last.Evictions)
	m.Writebacks.Add(now.Writebacks - last.Writebacks)
}

// tally is what the hot loop has counted since its last publish, in
// plain fields. The Report-backed counters are published as deltas of
// the Report itself; only quantities the Report does not carry are
// tallied here.
type tally struct {
	// transfers counts hierarchy events by [kind][crossed the chip].
	transfers [2][2]uint64
	cycles    obs.HistogramBatch
	// rep, l1 and l2 are the run's Report and the caches' Stats as of
	// the last publish.
	rep    Report
	l1, l2 cache.Stats
}

// publish sends every counter's growth since the last publish to the
// live metrics and records the new baseline. With no metrics installed
// each publish is a nil-receiver no-op.
func (s *SoC) publish(rep *Report) {
	m, t := &s.m, &s.tally
	m.Refs.Add(rep.Refs - t.rep.Refs)
	m.Instructions.Add(rep.Instructions - t.rep.Instructions)
	m.Cycles.Add(rep.Cycles - t.rep.Cycles)
	m.EngineLines.Add(rep.EngineLines - t.rep.EngineLines)
	m.AuthStalls.Add(rep.AuthStalls - t.rep.AuthStalls)
	m.AuthViolations.Add(rep.AuthViolations - t.rep.AuthViolations)
	t.rep = *rep

	fill, wb := t.transfers[cache.EvFill], t.transfers[cache.EvWriteback]
	m.Fills.Add(fill[0] + fill[1])
	m.ChipFills.Add(fill[1])
	m.Writebacks.Add(wb[0] + wb[1])
	m.ChipWritebacks.Add(wb[1])
	t.transfers = [2][2]uint64{}
	m.TransferCycles.AddBatch(&t.cycles)

	l1 := s.cache.Stats()
	m.L1.add(l1, t.l1)
	t.l1 = l1
	if s.l2 != nil {
		l2 := s.l2.Stats()
		m.L2.add(l2, t.l2)
		t.l2 = l2
	}
}
