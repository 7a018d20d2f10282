package core

// E22 generalizes the survey's §4 placement question (Figure 7a vs 7b)
// to a two-level cache hierarchy — the regime AEGIS was actually
// evaluated in. With only one cache level the placement choice is
// binary and mostly about the CPU-side access penalty (E11); with an
// L2 it becomes quantitative: the L2 filters the miss stream, so every
// step the EDU moves outward shrinks the bandwidth it must transform.

import (
	"fmt"

	"repro/internal/edu"
	"repro/internal/edu/products"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// E22Hierarchy sweeps EDU placement × L2 size × workload on the AEGIS
// engine. The edu-lines column is the engine's exposed bandwidth (line
// transfers crossing its boundary); "filtered" is the share of the
// inner boundary's traffic the L2 absorbed before it reached an outer
// EDU. The verdict column asserts the placement argument cell by cell:
// inner placements always see the full L1 miss stream (equal to the
// single-level system's), outer placement sees strictly less.
func E22Hierarchy(refs int) (*Table, error) {
	t := &Table{
		ID:         "E22 (extension)",
		Title:      "EDU placement across a two-level hierarchy: the L2 as a miss filter",
		PaperClaim: "\"where does the EDU fit?\" (§4, Fig. 7) — generalized to L1/L2: moving the unit outward shrinks its exposed bandwidth",
		Header:     []string{"workload", "l2", "placement", "edu-lines", "filtered", "overhead", "verdict"},
	}
	mkEng := func() (edu.Engine, error) {
		return products.AEGIS([]byte("0123456789abcdef"), 0x22)
	}
	type hierPoint struct {
		l2Size     int
		placements []string
	}
	grid := []hierPoint{
		{0, []string{"default"}},
		{64 << 10, []string{"l1-l2", "l2-dram", "cpu-l1"}},
		{256 << 10, []string{"l1-l2", "l2-dram"}},
	}

	// Three filtering regimes: firmware's 48 KiB footprint overflows
	// the 16 KiB L1 but fits either L2 (nearly every L1 miss filtered),
	// sequential's locality gives the L2 a moderate win, and
	// pointer-chase's 8 MiB random walk defeats both L2 sizes.
	for wi, wl := range []string{"firmware", "sequential", "pointer-chase"} {
		tcfg, ok := WorkloadProfile(wl, refs)
		if !ok {
			return nil, fmt.Errorf("E22: workload %q has no knob profile", wl)
		}
		tcfg.Seed = int64(22 + wi)
		src := trace.Sources[wl](tcfg)

		// The single-level exposure is the reference every inner row
		// must match: the L1 miss stream does not depend on what sits
		// behind the L1.
		var singleLines uint64
		for _, hp := range grid {
			cfg := soc.DefaultConfig()
			if hp.l2Size > 0 {
				cfg.L2 = soc.DefaultL2Config(hp.l2Size)
			}
			bsoc, err := soc.New(cfg)
			if err != nil {
				return nil, err
			}
			base := bsoc.Run(src)

			var innerLines uint64
			for _, place := range hp.placements {
				ecfg := cfg
				if ecfg.Placement, err = edu.ParsePlacement(place); err != nil {
					return nil, err
				}
				if ecfg.Engine, err = mkEng(); err != nil {
					return nil, err
				}
				esoc, err := soc.New(ecfg)
				if err != nil {
					return nil, err
				}
				rep := esoc.Run(src)

				l2Cell := "-"
				if hp.l2Size > 0 {
					l2Cell = fmt.Sprintf("%dK", hp.l2Size>>10)
				}
				filtered, verdict := "-", "-"
				switch place {
				case "default":
					singleLines = rep.EngineLines
				case "l1-l2":
					innerLines = rep.EngineLines
					// The inner boundary must see the unfiltered L1
					// miss stream — identical to the single-level
					// system on the same trace.
					verdict = fmt.Sprintf("%v", rep.EngineLines == singleLines)
				case "cpu-l1":
					// Same exposure as l1-l2 (every L1 miss crosses
					// the unit); the placement differs in the CPU-side
					// access penalty, which E11's engine carries.
					verdict = fmt.Sprintf("%v", rep.EngineLines == innerLines)
				case "l2-dram":
					if innerLines > 0 {
						filtered = fmt.Sprintf("%.1f%%", 100*(1-float64(rep.EngineLines)/float64(innerLines)))
					}
					verdict = fmt.Sprintf("%v", rep.EngineLines < innerLines)
				}
				t.AddRow(wl, l2Cell, esoc.Placement().String(), rep.EngineLines, filtered,
					fmt.Sprintf("%.2f%%", 100*rep.OverheadVs(base)), verdict)
			}
		}
	}
	t.Notes = append(t.Notes,
		"edu-lines counts line transfers crossing the engine's boundary: its exposed bandwidth",
		"the L1 miss stream is L2-independent, so inner placements (cpu<->l1, l1<->l2) are never filtered",
		"outer placement wins twice: fewer lines cross the unit, and the DRAM transfer window it overlaps is longer than an L2 hit",
		"overheads are vs a plaintext baseline with the SAME hierarchy — the L2's own benefit is factored out")
	return t, nil
}
