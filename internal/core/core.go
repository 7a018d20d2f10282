// Package core is the public façade of the bus-encryption survey
// reproduction: it registers every surveyed engine with its paper
// metadata, assembles simulated systems around them, and implements the
// experiment suite (E1–E22 in DESIGN.md) that regenerates each of the
// survey's quantitative claims.
//
// The package Example is typical use: build a registered engine, put it
// on a simulated bus under a probe, and measure its overhead with
// soc.Compare. Each experiment is one call, e.g. E6Aegis(DefaultRefs).
package core

import (
	"fmt"

	"repro/internal/crypto/modes"
	"repro/internal/edu"
	"repro/internal/edu/gilmont"
	"repro/internal/edu/products"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// CodeLimit is the boundary between the code and data regions in every
// experiment's address map (matches trace.Config defaults: code below,
// data at 0x4000_0000).
const CodeLimit = 0x1000_0000

// SurveyEntry describes one surveyed design: its paper metadata and an
// engine factory (fresh state per call — engines are stateful).
type SurveyEntry struct {
	// Key is the registry lookup name.
	Key string
	// Name is the design's common name.
	Name string
	// Origin cites the source (patent, product or paper).
	Origin string
	// Figure is the survey figure presenting it.
	Figure string
	// Year is the design's publication year.
	Year int
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
			Origin: "US patents 4,168,396 / 4,278,837 / 4,465,901", Figure: "Fig. 3", Year: 1979,
			Cipher: "mono/poly-alphabetic substitution + byte transposition", BlockBits: 64,
			ModeDesc:    "address-bound per-block",
			ClaimedCost: "none quoted (runs at bus speed)",
			Build:       func() (edu.Engine, error) { return products.NewBest(key8) },
		},
		{
			Key: "vlsi", Name: "VLSI Technology secure MMU",
			Origin: "US patent 5,825,878", Figure: "Fig. 4", Year: 1998,
			Cipher: "DES", BlockBits: 64,
			ModeDesc:    "page-wise secure DMA, OS-trusted",
			ClaimedCost: "none quoted (page-granular amortization)",
			Build:       func() (edu.Engine, error) { return products.NewVLSI(key8, 4096, 8) },
		},
		{
			Key: "gi", Name: "General Instrument secure processor",
			Origin: "US patent 6,061,449", Figure: "Fig. 5", Year: 2000,
			Cipher: "3-DES + keyed hash", BlockBits: 64,
			ModeDesc:    "CBC chained + MAC",
			ClaimedCost: "\"unacceptable CPU performance degradation for random accesses\"",
			Build: func() (edu.Engine, error) {
				return products.NewGeneralInstrument(key24, key8)
			},
		},
		{
			Key: "ds5002", Name: "Dallas DS5002FP",
			Origin: "Dallas Semiconductor (Maxim)", Figure: "Fig. 6", Year: 1993,
			Cipher: "proprietary 8-bit bus cipher", BlockBits: 8,
			ModeDesc:    "per-byte, address-keyed",
			ClaimedCost: "broken by Kuhn's 256-way cipher instruction search",
			Build:       func() (edu.Engine, error) { return products.NewDS5002(key8) },
		},
		{
			Key: "ds5240", Name: "Dallas DS5240",
			Origin: "Dallas Semiconductor (Maxim)", Figure: "Fig. 6", Year: 2003,
			Cipher: "DES / 3-DES", BlockBits: 64,
			ModeDesc:    "per-block, address-tweaked",
			ClaimedCost: "none quoted (\"strengthened robustness\")",
			Build:       func() (edu.Engine, error) { return products.NewDS5240(key16) },
		},
		{
			Key: "gilmont", Name: "Gilmont et al. secure MMU",
			Origin: "Euromicro 1999 [3]", Figure: "§3", Year: 1999,
			Cipher: "pipelined 3-DES + fetch prediction", BlockBits: 64,
			ModeDesc:    "ECB, static code only",
			ClaimedCost: "deciphering cost < 2.5%",
			Build: func() (edu.Engine, error) {
				return gilmont.New(gilmont.Config{Key: key24, CodeLimit: CodeLimit, Gates: products.GilmontGates})
			},
		},
		{
			Key: "xom", Name: "XOM",
			Origin: "Stanford [13]", Figure: "§3", Year: 2000,
			Cipher: "pipelined AES", BlockBits: 128,
			ModeDesc:    "per-block",
			ClaimedCost: "latency 14 cycles, 1 block/cycle throughput",
			Build:       func() (edu.Engine, error) { return products.XOM(key16) },
		},
		{
			Key: "aegis", Name: "AEGIS",
			Origin: "MIT, ICS 2003 [14]", Figure: "§3", Year: 2003,
			Cipher: "pipelined AES, 300k gates", BlockBits: 128,
			ModeDesc:    "CBC per cache block, IV = addr + counter",
			ClaimedCost: "performance overhead ~25%",
			Build: func() (edu.Engine, error) {
				return products.AEGIS(key16, modes.IVCounter, 0xae915)
			},
		},
	}
}

// Entry looks up a surveyed design by key.
func Entry(key string) (SurveyEntry, error) {
	for _, e := range Survey() {
		if e.Key == key {
			return e, nil
		}
	}
	return SurveyEntry{}, fmt.Errorf("core: unknown engine %q (known: best, vlsi, gi, ds5002, ds5240, gilmont, xom, aegis)", key)
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
// reference mix everywhere. The caller supplies the RNG (Seed or Rand).
func WorkloadProfile(name string, refs int) (trace.Config, bool) {
	cfg := trace.Config{Refs: refs}
	switch name {
	case "sequential":
		cfg.LoadFraction, cfg.WriteFraction, cfg.JumpRate, cfg.Locality = 0.35, 0.3, 0.03, 0.7
	case "firmware":
		// Microcontroller-class mix; the generator forces the small
		// footprint (16K code / 32K data) itself.
		cfg.LoadFraction, cfg.WriteFraction, cfg.JumpRate, cfg.Locality = 0.35, 0.4, 0.03, 0.5
	case "code-only":
		cfg.JumpRate = 0.02
	case "streaming":
		cfg.WriteFraction = 0.3
	case "pointer-chase":
		cfg.DataSize = 8 << 20
	case "matrix-like":
		// generator defaults
	default:
		return trace.Config{}, false
	}
	return cfg, true
}

// workloadNames is the standard five-workload set in suite order.
var workloadNames = []string{"sequential", "code-only", "streaming", "pointer-chase", "matrix-like"}

// WorkloadSources returns the standard workload set as streaming
// reference sources sized to refs references each — the constant-memory
// form long sweeps consume. Sources are Seed-configured, so they can be
// replayed (soc.Compare replays).
func WorkloadSources(refs int) []trace.RefSource {
	out := make([]trace.RefSource, len(workloadNames))
	for i, name := range workloadNames {
		cfg, _ := WorkloadProfile(name, refs)
		cfg.Seed = int64(11 + i)
		out[i] = trace.Sources[name](cfg)
	}
	return out
}

// Workloads returns the same standard set fully materialized — the
// convenient form for small experiments and tests.
func Workloads(refs int) []*trace.Trace {
	srcs := WorkloadSources(refs)
	out := make([]*trace.Trace, len(srcs))
	for i, src := range srcs {
		out[i] = trace.Drain(src)
	}
	return out
}

// MeasureOverhead runs eng against the baseline on src with the
// standard system configuration and returns the fractional overhead.
// Both a streaming source and a materialized *trace.Trace satisfy src.
func MeasureOverhead(eng edu.Engine, src trace.RefSource) (float64, error) {
	base, with, err := soc.Compare(soc.DefaultConfig(), eng, src)
	if err != nil {
		return 0, err
	}
	return with.OverheadVs(base), nil
}
