// Package core is the public façade of the bus-encryption survey
// reproduction: it registers every surveyed engine with its paper
// metadata, assembles simulated systems around them, and implements the
// experiment suite (E1–E22 in DESIGN.md) that regenerates each of the
// survey's quantitative claims.
//
// The package Example is typical use: build a registered engine, put it
// on a simulated bus under a probe, and measure its overhead with
// soc.Baselines.Compare, whose baselines an experiment shares across its
// engines. Each experiment is one call, e.g. E6Aegis(DefaultRefs).
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/edu"
	"repro/internal/edu/gilmont"
	"repro/internal/edu/products"
	"repro/internal/sim/trace"
)

// SurveyEntry describes one surveyed design: its paper metadata and an
// engine factory (fresh state per call — engines are stateful).
type SurveyEntry struct {
	// Key is the registry lookup name.
	Key string
	// Name is the design's common name.
	Name string
	// Origin cites the source (patent, product or paper).
	Origin string
	// Cipher describes the cryptographic core.
	Cipher string
	// BlockBits is the ciphering granule in bits.
	BlockBits int
	// ModeDesc summarizes the operating mode.
	ModeDesc string
	// ClaimedCost quotes the survey's cost statement, if any.
	ClaimedCost string
	// Build constructs a fresh engine instance.
	Build func() (edu.Engine, error)
}

// Survey returns the registry of all surveyed designs in the order the
// paper presents them (§3, then the §4 proposals appear via E11/E12).
func Survey() []SurveyEntry {
	key8 := []byte("on-chip!")
	key16 := []byte("0123456789abcdef")
	key24 := []byte("0123456789abcdef01234567")
	return []SurveyEntry{
		{
			Key: "best", Name: "Best crypto-microprocessor",
			Origin: "US patents 4,168,396 / 4,278,837 / 4,465,901",
			Cipher: "mono/poly-alphabetic substitution + byte transposition", BlockBits: 64,
			ModeDesc:    "address-bound per-block",
			ClaimedCost: "none quoted (runs at bus speed)",
			Build:       func() (edu.Engine, error) { return products.NewBest(key8) },
		},
		{
			Key: "vlsi", Name: "VLSI Technology secure MMU",
			Origin: "US patent 5,825,878",
			Cipher: "DES", BlockBits: 64,
			ModeDesc:    "page-wise secure DMA, OS-trusted",
			ClaimedCost: "none quoted (page-granular amortization)",
			Build:       func() (edu.Engine, error) { return products.NewVLSI(key8) },
		},
		{
			Key: "gi", Name: "General Instrument secure processor",
			Origin: "US patent 6,061,449",
			Cipher: "3-DES + keyed hash", BlockBits: 64,
			ModeDesc:    "CBC chained + MAC",
			ClaimedCost: "\"unacceptable CPU performance degradation for random accesses\"",
			Build: func() (edu.Engine, error) {
				return products.NewGeneralInstrument(key24)
			},
		},
		{
			Key: "ds5002", Name: "Dallas DS5002FP",
			Origin: "Dallas Semiconductor (Maxim)",
			Cipher: "proprietary 8-bit bus cipher", BlockBits: 8,
			ModeDesc:    "per-byte, address-keyed",
			ClaimedCost: "broken by Kuhn's 256-way cipher instruction search",
			Build:       func() (edu.Engine, error) { return products.NewDS5002(key8) },
		},
		{
			Key: "ds5240", Name: "Dallas DS5240",
			Origin: "Dallas Semiconductor (Maxim)",
			Cipher: "DES / 3-DES", BlockBits: 64,
			ModeDesc:    "per-block, address-tweaked",
			ClaimedCost: "none quoted (\"strengthened robustness\")",
			Build:       func() (edu.Engine, error) { return products.NewDS5240(key16) },
		},
		{
			Key: "gilmont", Name: "Gilmont et al. secure MMU",
			Origin: "Euromicro 1999 [3]",
			Cipher: "pipelined 3-DES + fetch prediction", BlockBits: 64,
			ModeDesc:    "ECB, static code only",
			ClaimedCost: "deciphering cost < 2.5%",
			Build: func() (edu.Engine, error) {
				return gilmont.New(key24)
			},
		},
		{
			Key: "xom", Name: "XOM",
			Origin: "Stanford [13]",
			Cipher: "pipelined AES", BlockBits: 128,
			ModeDesc:    "per-block",
			ClaimedCost: "latency 14 cycles, 1 block/cycle throughput",
			Build:       func() (edu.Engine, error) { return products.XOM(key16) },
		},
		{
			Key: "aegis", Name: "AEGIS",
			Origin: "MIT, ICS 2003 [14]",
			Cipher: "pipelined AES, 300k gates", BlockBits: 128,
			ModeDesc:    "CBC per cache block, IV = addr + counter",
			ClaimedCost: "performance overhead ~25%",
			Build: func() (edu.Engine, error) {
				return products.AEGIS(key16, 0xae915)
			},
		},
	}
}

// EngineKeys lists the surveyed designs' keys in registry order.
func EngineKeys() []string {
	entries := Survey()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// Entry looks up a surveyed design by key.
func Entry(key string) (SurveyEntry, error) {
	for _, e := range Survey() {
		if e.Key == key {
			return e, nil
		}
	}
	return SurveyEntry{}, fmt.Errorf("core: unknown engine %q (known: %s)",
		key, strings.Join(EngineKeys(), ", "))
}

// MustEntry is Entry for known-good keys; it panics on typos.
func MustEntry(key string) SurveyEntry {
	e, err := Entry(key)
	if err != nil {
		panic(err)
	}
	return e
}

// WorkloadProfile returns the standard knob settings for the named
// workload — the single definition both the experiment suite and the
// campaign sweeps draw from, so a workload name measures the same
// reference mix everywhere. The caller supplies the Seed.
func WorkloadProfile(name string, refs int) (trace.Config, bool) {
	cfg, ok := profiles[name]
	cfg.Refs = refs
	return cfg, ok
}

// profiles holds WorkloadProfile's knobs, one entry per trace.Sources
// name.
var profiles = map[string]trace.Config{
	"sequential": {LoadFraction: 0.35, WriteFraction: 0.3, JumpRate: 0.03, Locality: 0.7},
	// Microcontroller-class mix; the generator forces the small
	// footprint (16K code / 32K data) itself.
	"firmware":      {LoadFraction: 0.35, WriteFraction: 0.4, JumpRate: 0.03, Locality: 0.5},
	"code-only":     {JumpRate: 0.02},
	"streaming":     {WriteFraction: 0.3},
	"pointer-chase": {DataSize: 8 << 20},
	"matrix-like":   {}, // generator defaults
}

// workloadNames is the standard five-workload set in suite order.
var workloadNames = []string{"sequential", "code-only", "streaming", "pointer-chase", "matrix-like"}

// WorkloadSources returns the standard workload set, sized to refs
// references each: every name's profile, seeded 11 + its index in the
// suite order.
func WorkloadSources(refs int) []trace.RefSource {
	out := make([]trace.RefSource, len(workloadNames))
	for i, name := range workloadNames {
		out[i] = standardSource(name, refs)
	}
	return out
}

// standardSource is the WorkloadSources entry for name.
func standardSource(name string, refs int) trace.RefSource {
	return ProfileSource(name, refs, int64(11+slices.Index(workloadNames, name)))
}

// ProfileSource streams the named workload's WorkloadProfile from seed:
// the one reference source the experiment suite and the campaign
// sweeps build, so a (workload, refs, seed) triple replays the same
// references everywhere. name must be a trace.Sources workload.
func ProfileSource(name string, refs int, seed int64) trace.RefSource {
	cfg, _ := WorkloadProfile(name, refs)
	cfg.Seed = seed
	return trace.Sources[name](cfg)
}
