// Package trace defines the memory-reference traces that drive the SoC
// simulator and provides the synthetic workload generators substituting
// for the benchmark suites the surveyed papers ran (per DESIGN.md §5 the
// substitution: parametric generators whose knobs — jump rate, write
// fraction, locality — are swept across the regimes those papers
// measured).
//
//repro:deterministic
package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/sim/addrmap"
)

// Kind distinguishes the three reference types an in-order core issues.
type Kind uint8

const (
	// Fetch is an instruction fetch.
	Fetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
)

// String returns the conventional short name.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is one memory reference: an address, a size in bytes, and the gap
// of pure compute cycles the core spends before issuing it (so traces
// carry the paper-relevant ratio of memory activity to computation).
type Ref struct {
	Kind    Kind
	Addr    uint64
	Size    uint8  // bytes touched: 1, 2, 4 or 8
	Compute uint16 // compute cycles preceding this reference
}

// Trace is a materialized reference stream: Drain of a source, or a
// hand-built list of references. A *Trace is itself a RefSource
// (Label/Next/Reset over the slice), so every simulator entry point
// accepts it.
type Trace struct {
	Name string
	Refs []Ref

	pos int // Next cursor
}

// Label implements RefSource.
func (t *Trace) Label() string { return t.Name }

// Next implements RefSource.
func (t *Trace) Next() (Ref, bool) {
	if t.pos >= len(t.Refs) {
		return Ref{}, false
	}
	r := t.Refs[t.pos]
	t.pos++
	return r, true
}

// Reset implements RefSource: rewinds to the first reference.
func (t *Trace) Reset() { t.pos = 0 }

// Config parameterizes the synthetic generators. Zero values get
// defaults from (*Config).fill.
type Config struct {
	// Refs is the number of references to generate.
	Refs int
	// Seed drives the generator's PRNG; equal configs produce equal
	// streams, and Reset replays the stream by reseeding.
	Seed int64
	// CodeBase/CodeSize bound the instruction region (bytes).
	CodeBase, CodeSize uint64
	// DataBase/DataSize bound the data region (bytes). fill places an
	// unset region (DataSize 0) at addrmap.DataBase; a DataSize set
	// without a DataBase leaves the region at address 0.
	DataBase, DataSize uint64
	// JumpRate is the probability a fetch redirects to a random code
	// address instead of falling through — the survey's "random data
	// access problem (JUMP instructions)".
	JumpRate float64
	// LoadFraction is the probability a data access follows each fetch.
	LoadFraction float64
	// WriteFraction is the probability a data access is a store.
	WriteFraction float64
	// Locality in [0,1): probability a data access revisits a recent
	// address rather than drawing a fresh one (drives the cache hit rate).
	Locality float64
}

func (c *Config) fill() {
	if c.Refs == 0 {
		c.Refs = 50000
	}
	if c.CodeSize == 0 {
		c.CodeBase, c.CodeSize = 0x0000_0000, 1<<20
	}
	if c.DataSize == 0 {
		c.DataBase, c.DataSize = addrmap.DataBase, 4<<20
	}
}

// computeMean is the average compute gap between references, in cycles.
const computeMean = 2

// computeGap draws a compute gap uniform on [0, 2*computeMean].
func computeGap(rng *rand.Rand) uint16 {
	return uint16(rng.Intn(2*computeMean + 1))
}

// MultiProcessConfig parameterizes the round-robin multitasking
// workload MultiProcessSource streams: Processes processes, each
// confined to its own code and data regions (ProcessRegion), scheduled
// in quanta of Quantum references. It drives the key-management
// extension (multikey EDU): every quantum boundary is a
// protection-domain switch on the bus.
type MultiProcessConfig struct {
	// Config supplies the per-process knobs (jump rate, write fraction,
	// locality, compute gaps); region fields are ignored.
	Config
	// Quantum is references per scheduling slice (default 500).
	Quantum int
}

const (
	// Processes is the multi-process workload's process count.
	Processes = 4
	// regionBytes is each process's code and data region size.
	regionBytes = 256 << 10
)

// ProcessRegion returns process p's address region [base, limit) in the
// multi-process workload: its code region, then its data region, each
// regionBytes long. The multikey experiments use it to wire protection
// domains that match the generator.
func ProcessRegion(p int) (base, limit uint64) {
	base = uint64(p) * 2 * regionBytes
	return base, base + 2*regionBytes
}

func (c *MultiProcessConfig) fillMP() {
	if c.Quantum == 0 {
		c.Quantum = 500
	}
}
