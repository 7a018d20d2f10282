package core

// Extension experiments beyond the survey's own claims: E17 implements
// the paper's closing future-work sentence, and E18 ablates the system
// parameters the survey says the designer must trade off (§2.2's "it is
// often a tradeoff between intended security (robustness) and affordable
// performance loss").

import (
	"bytes"
	"fmt"

	"repro/internal/crypto/aes"
	"repro/internal/edu"
	"repro/internal/edu/blockengine"
	"repro/internal/edu/multikey"
	"repro/internal/edu/products"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// E17Integrity implements §5's future work: "take into account the
// problem of integrity, to thwart attacks based on the modification of
// the fetched instructions". Three active attacks against three
// protection levels, plus what the authentication costs. The rows hold
// XOM fixed and vary the flat authenticator beside it, with the keyed
// hash (HMAC-SHA256) tag unit the General Instrument patent sketches.
func E17Integrity(refs int) (*Table, error) {
	t := &Table{
		ID:         "E17 (extension)",
		Title:      "integrity against instruction modification (the survey's future work)",
		PaperClaim: "\"it might also be relevant to take into account the problem of integrity, to thwart attacks based on the modification of the fetched instructions\" (§5)",
		Header:     []string{"engine", "spoof", "splice", "replay", "overhead", "gates"},
	}
	flat := func(fresh bool) func() (edu.Verifier, error) {
		return func() (edu.Verifier, error) {
			return authtree.NewFlat(authtree.FlatConfig{
				Key: []byte("tag-key"), HMAC: true, Fresh: fresh, ProtectedLines: 1 << 16,
			})
		}
	}
	rows := []struct {
		suffix string
		mkVer  func() (edu.Verifier, error)
	}{
		{"", func() (edu.Verifier, error) { return nil, nil }},
		{"+mac", flat(false)},
		{"+mac+freshness", flat(true)},
	}

	tr := ProfileSource("sequential", refs, 17)
	baselines := soc.Baselines{}
	for _, row := range rows {
		// One system per attack: tampering dirties state.
		spoof, splice, replay, err := runTampers(func() (*soc.SoC, error) {
			return tamperSoC(xomEngine, row.mkVer, firmwareImage())
		})
		if err != nil {
			return nil, err
		}

		eng, err := xomEngine()
		if err != nil {
			return nil, err
		}
		cfg := soc.DefaultConfig()
		if cfg.Verifier, err = row.mkVer(); err != nil {
			return nil, err
		}
		base, with, err := baselines.Compare(cfg, eng, tr)
		if err != nil {
			return nil, err
		}
		gates := eng.Gates()
		if cfg.Verifier != nil {
			gates += cfg.Verifier.Gates()
		}
		t.AddRow(eng.Name()+row.suffix, verdict(spoof), verdict(splice), verdict(replay),
			fmt.Sprintf("%.1f%%", 100*with.OverheadVs(base)), gates)
	}
	t.Notes = append(t.Notes,
		"MAC binds content+address (stops spoof/splice); only versioned freshness stops replay",
		"the freshness counter table's area scales with protected memory — the problem AEGIS's integrity tree exists to solve")
	return t, nil
}

// E18Ablations sweeps the system knobs DESIGN.md calls out, all against
// the AEGIS engine: cache size (miss-rate lever), line size (blocks per
// ciphering unit), write policy (writeback pressure), and memory speed
// (the overlap window) — the designer's §2.2 tradeoff space.
func E18Ablations(refs int) (*Table, error) {
	t := &Table{
		ID:         "E18 (extension)",
		Title:      "design-space ablations around the AEGIS engine",
		PaperClaim: "\"Electing a cryptosystem has to be done with respects to the system specifications. It is often a tradeoff...\" (§2.2)",
		Header:     []string{"knob", "setting", "overhead"},
	}
	tr := ProfileSource("sequential", refs, 18)
	baselines := soc.Baselines{}

	measure := func(mut func(*soc.Config)) (float64, error) {
		eng, err := products.AEGIS([]byte("0123456789abcdef"), 0xab1a7e)
		if err != nil {
			return 0, err
		}
		cfg := soc.DefaultConfig()
		mut(&cfg)
		base, with, err := baselines.Compare(cfg, eng, tr)
		if err != nil {
			return 0, err
		}
		return with.OverheadVs(base), nil
	}

	for _, size := range []int{4 << 10, 16 << 10, 64 << 10} {
		ov, err := measure(func(c *soc.Config) { c.Cache.Size = size })
		if err != nil {
			return nil, err
		}
		t.AddRow("cache size", fmt.Sprintf("%dK", size>>10), fmt.Sprintf("%.1f%%", 100*ov))
	}
	for _, line := range []int{16, 32, 64} {
		ov, err := measure(func(c *soc.Config) { c.Cache.LineSize = line })
		if err != nil {
			return nil, err
		}
		t.AddRow("line size", fmt.Sprintf("%dB", line), fmt.Sprintf("%.1f%%", 100*ov))
	}
	for _, div := range []int{1, 2, 4} {
		ov, err := measure(func(c *soc.Config) { c.Bus.ClockDivider = div })
		if err != nil {
			return nil, err
		}
		t.AddRow("bus divider", fmt.Sprintf("/%d", div), fmt.Sprintf("%.1f%%", 100*ov))
	}

	// Cipher-core latency: what a slower crypto clock does.
	for _, lat := range []int{7, 14, 28} {
		c, err := aes.New([]byte("0123456789abcdef"))
		if err != nil {
			return nil, err
		}
		eng, err := blockengine.New(blockengine.Config{
			Name: "aegis-var-latency", Cipher: c, Mode: blockengine.LineCBC,
			Timing: edu.PipelineTiming{Latency: lat, II: 1},
			Gates:  products.AEGISGates, Salt: 1, WholeLineStall: true,
		})
		if err != nil {
			return nil, err
		}
		base, with, err := baselines.Compare(soc.DefaultConfig(), eng, tr)
		if err != nil {
			return nil, err
		}
		t.AddRow("AES latency", fmt.Sprintf("%d cycles", lat), fmt.Sprintf("%.1f%%", 100*with.OverheadVs(base)))
	}
	t.Notes = append(t.Notes,
		"bigger caches shrink the miss stream the engine taxes; slower buses widen the overlap window",
		"engine latency moves overhead nearly linearly — the pipelined core is the design's load-bearing choice")
	return t, nil
}

// E19KeyManagement implements the survey's §1 deferral: "it will not
// explore the key management mechanisms relative to multitasking
// operating systems; refer to [2]". Per-process bus keys on a
// round-robin multitasking workload: isolation across domains, and the
// key-reload tax as a function of scheduling quantum.
func E19KeyManagement(refs int) (*Table, error) {
	t := &Table{
		ID:         "E19 (extension)",
		Title:      "per-process bus keys under multitasking (the survey's §1 deferral)",
		PaperClaim: "\"it will not explore the key management mechanisms relative to multitasking operating systems; refer to [2]\" — explored here",
		Header:     []string{"quantum (refs)", "domain switches", "switch rate", "overhead vs single-key"},
	}
	mkMulti := func() (*multikey.Engine, error) {
		regions := make([]multikey.Region, trace.Processes)
		for p := range trace.Processes {
			base, limit := trace.ProcessRegion(p)
			inner, err := products.AEGIS([]byte("0123456789abcdef"), uint64(p+1))
			if err != nil {
				return nil, err
			}
			regions[p] = multikey.Region{Base: base, Limit: limit, Engine: inner, Name: fmt.Sprintf("proc%d", p)}
		}
		return multikey.New(regions)
	}

	for _, quantum := range []int{100, 500, 2000, 10000} {
		tr := trace.MultiProcessSource(trace.MultiProcessConfig{
			Config:  trace.Config{Refs: refs, Seed: 19, LoadFraction: 0.3, WriteFraction: 0.3, JumpRate: 0.02, Locality: 0.6},
			Quantum: quantum,
		})

		multi, err := mkMulti()
		if err != nil {
			return nil, err
		}
		cfg := soc.DefaultConfig()
		cfg.Engine = multi
		sMulti, err := soc.New(cfg)
		if err != nil {
			return nil, err
		}
		repMulti := sMulti.Run(tr)

		// Single shared key over the whole space: the insecure baseline.
		single, err := products.AEGIS([]byte("0123456789abcdef"), 99)
		if err != nil {
			return nil, err
		}
		cfgS := soc.DefaultConfig()
		cfgS.Engine = single
		sSingle, err := soc.New(cfgS)
		if err != nil {
			return nil, err
		}
		repSingle := sSingle.Run(tr)

		transfers := repMulti.Cache.Misses + repMulti.Cache.Writebacks
		t.AddRow(quantum, multi.Switches,
			fmt.Sprintf("%.3f", multi.SwitchRate(transfers)),
			fmt.Sprintf("%.2f%%", 100*(float64(repMulti.Cycles)/float64(repSingle.Cycles)-1)))
	}

	// Isolation demonstration: same plaintext, two processes, different
	// ciphertext on the bus.
	multi, err := mkMulti()
	if err != nil {
		return nil, err
	}
	line := make([]byte, 32)
	ctA := make([]byte, 32)
	ctB := make([]byte, 32)
	b1, _ := trace.ProcessRegion(0)
	b2, _ := trace.ProcessRegion(1)
	multi.EncryptLine(b1+0x40, ctA, line)
	multi.EncryptLine(b2+0x40, ctB, line)
	isolated := !bytes.Equal(ctA, ctB)
	t.AddRow("isolation", "-", "-", fmt.Sprintf("cross-domain ciphertexts differ: %v", isolated))
	t.Notes = append(t.Notes,
		"switch counts are floored by cross-domain writeback interleaving, not just quantum boundaries",
		"short quanta amplify the key-reload tax; realistic quanta (thousands of refs) make it negligible",
		"the single-key baseline is cheaper but lets any process's probe observations correlate across all domains")
	return t, nil
}
