package core_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// Example puts an encryption engine on a simulated bus, checks that a
// board-level probe sees only ciphertext, and measures what it costs.
func Example() {
	// 1. Pick a surveyed engine: AEGIS-style AES with address-bound IVs.
	entry := core.MustEntry("aegis")
	engine, err := entry.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the SoC and install a secret program through the engine.
	cfg := soc.DefaultConfig()
	cfg.Engine = engine
	system, err := soc.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	secret := bytes.Repeat([]byte("TOP-SECRET FIRMWARE BLOCK 01 -- "), 64)
	if err := system.LoadImage(0, secret); err != nil {
		log.Fatal(err)
	}

	// 3. Clip a probe onto the bus: the survey's class-II attacker.
	probe := &attack.Probe{}
	system.Bus().Attach(probe)

	// 4. Run a workload and look at the wires.
	workload := trace.SequentialSource(trace.Config{
		Refs: 20000, Seed: 1, LoadFraction: 0.3, WriteFraction: 0.25, Locality: 0.7,
	})
	report := system.Run(workload)

	fmt.Printf("ran %d refs in %d cycles (CPI %.2f)\n",
		report.Refs, report.Cycles, report.CPI())
	fmt.Printf("probe captured %d bus transactions, %d bytes\n",
		len(probe.Beats), len(probe.Data()))
	fmt.Printf("plaintext visible to probe: %v\n", probe.ContainsPlaintext(secret[:16]))
	// The plaintext repeats 32 bytes 64 times; address-bound IVs hide it.
	fmt.Printf("duplicate-block leak in memory image: %.3f (plaintext image: %.3f)\n",
		attack.DuplicateBlockRatio(system.DRAM().Dump(0, len(secret)), 16),
		attack.DuplicateBlockRatio(secret, 16))

	// 5. What did it cost? Same trace on cfg.Baseline(), the plaintext
	// system. One soc.Baselines simulates it once for every engine
	// compared on this geometry and workload.
	fresh, err := entry.Build()
	if err != nil {
		log.Fatal(err)
	}
	base, with, err := soc.Baselines{}.Compare(soc.DefaultConfig(), fresh, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encryption overhead: %.1f%% (the survey quotes ~25%% for this design)\n",
		100*with.OverheadVs(base))

	// Output:
	// ran 20000 refs in 339927 cycles (CPI 22.13)
	// probe captured 4092 bus transactions, 130944 bytes
	// plaintext visible to probe: false
	// duplicate-block leak in memory image: 0.000 (plaintext image: 0.984)
	// encryption overhead: 24.9% (the survey quotes ~25% for this design)
}
