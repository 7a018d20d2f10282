// Package edu defines the Encryption/Decryption Unit abstraction of the
// survey's Figure 2c: the hardware block that sits on the external side
// of the cache (or, in the Figure 7b variant, between CPU and cache) and
// transforms every line crossing the chip boundary.
//
// An Engine couples two things the survey insists must be reasoned about
// together: the *data path* (what bytes appear on the probed bus) and
// the *timing* (what the deciphering does to CPU performance, "the
// usually stated critical impact"). Each surveyed design — Best, VLSI,
// General Instrument, Dallas, XOM, AEGIS, Gilmont — is an Engine
// implementation in a subpackage.
package edu

import "fmt"

// Placement locates the EDU in the memory hierarchy (Figure 7).
type Placement int

const (
	// PlacementNone means no encryption: the plaintext baseline.
	PlacementNone Placement = iota
	// PlacementCacheMem is Figure 7a: EDU between cache and memory
	// controller; cache contents are plaintext, bus and memory carry
	// ciphertext. Every surveyed product uses this placement.
	PlacementCacheMem
	// PlacementCPUCache is Figure 7b: EDU between CPU core and cache;
	// even on-chip cache contents are ciphertext. §4 explains why this
	// is hard: it touches the CPU-cache critical path and needs an
	// on-chip keystream store as large as the cache.
	PlacementCPUCache
	// PlacementL1L2 generalizes Figure 7 to a two-level hierarchy: the
	// EDU sits between the L1 and L2 caches, so the L2 and everything
	// beyond it hold ciphertext and every L1 miss crosses the unit.
	PlacementL1L2
	// PlacementL2DRAM is the AEGIS-evaluated configuration: the EDU at
	// the outer edge of a two-level hierarchy, where the L2 has already
	// filtered the miss traffic the unit must transform.
	PlacementL2DRAM
)

// String names the placement as the survey's figures do.
func (p Placement) String() string {
	switch p {
	case PlacementNone:
		return "none"
	case PlacementCacheMem:
		return "cache<->memctrl"
	case PlacementCPUCache:
		return "cpu<->cache"
	case PlacementL1L2:
		return "l1<->l2"
	case PlacementL2DRAM:
		return "l2<->dram"
	default:
		return "unknown"
	}
}

// PlacementNames lists the sweepable placement vocabulary accepted by
// ParsePlacement, in hierarchy order (flag help, validation).
func PlacementNames() []string {
	return []string{"default", "cpu-l1", "l1-l2", "l2-dram"}
}

// ParsePlacement resolves the CLI/campaign placement vocabulary: "" or
// "default" selects the outermost boundary of whatever hierarchy is
// configured (the pre-hierarchy behavior), "cpu-l1" the Figure 7b CPU-
// side boundary, "l1-l2" and "l2-dram" the two boundaries of a
// two-level hierarchy.
func ParsePlacement(name string) (Placement, error) {
	switch name {
	case "", "default":
		return PlacementNone, nil
	case "cpu-l1":
		return PlacementCPUCache, nil
	case "l1-l2":
		return PlacementL1L2, nil
	case "l2-dram":
		return PlacementL2DRAM, nil
	default:
		return PlacementNone, fmt.Errorf("edu: unknown placement %q (want default, cpu-l1, l1-l2 or l2-dram)", name)
	}
}

// Engine is one bus-encryption unit: data transform plus timing model.
//
// Addresses given to the transform methods are line-aligned physical bus
// addresses; engines that bind ciphertext to addresses (Best, DS5240,
// AEGIS IVs) use them, ECB-style engines ignore them.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// BlockBytes is the ciphering granule in bytes (1 for the DS5002's
	// byte cipher, 8 for DES cores, 16 for AES cores).
	BlockBytes() int
	// Gates estimates the silicon area in gate equivalents; the survey
	// quotes AEGIS's unit at 300,000 gates.
	Gates() int

	// EncryptLine transforms one plaintext line at addr into the bytes
	// that will cross the bus. len(dst) == len(src) == a line size that
	// is a multiple of BlockBytes.
	EncryptLine(addr uint64, dst, src []byte)
	// DecryptLine inverts EncryptLine.
	DecryptLine(addr uint64, dst, src []byte)

	// PerAccessCycles is added to EVERY cpu reference, hit or miss;
	// nonzero only for PlacementCPUCache engines, which lengthen the
	// cache access path itself.
	PerAccessCycles() uint64
	// ReadExtraCycles is the stall added to a line fill beyond the
	// bus+memory transfer time transferCycles. Engines that overlap
	// keystream generation with the fetch return (near) zero here.
	ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64
	// WriteExtraCycles is the engine-side cost of encrypting an
	// outbound line (writeback or write-through of a full granule).
	WriteExtraCycles(addr uint64, lineBytes int) uint64
	// NeedsRMW reports whether a store of writeBytes requires the
	// read-decipher-modify-recipher-write sequence of §2.2 because it
	// is smaller than the ciphering granule.
	NeedsRMW(writeBytes int) bool
}

// TransferSizer is an optional Engine extension for units that change
// the number of bytes actually crossing the bus — the compression stage
// of Figure 8. The SoC asks engines implementing it how many bytes to
// move for a line; plain encryption engines move the full line.
type TransferSizer interface {
	// TransferBytes returns the on-bus size of a line of lineBytes at
	// addr (≤ lineBytes for a compressor; the data path still carries
	// the full deciphered line to the cache).
	TransferBytes(addr uint64, lineBytes int) int
}

// PipelineTiming describes a hardware cipher core the way the surveyed
// papers do: a fill latency and an initiation interval. XOM's unit is
// quoted as "a low latency of 14 cycles, while a throughput of one
// encrypted/decrypted data per clock cycle" — Latency 14, II 1. An
// iterative (non-pipelined) core has II == Latency.
type PipelineTiming struct {
	// Latency is the cycles from a block entering the core to its
	// result emerging (pipeline depth × stage time).
	Latency int
	// II is the initiation interval: cycles between successive block
	// admissions (1 for fully pipelined, Latency for iterative).
	II int
}

// LineCycles returns the engine-side completion time, measured from the
// start of the line transfer, of deciphering `blocks` granules that
// arrive uniformly over transferCycles. It models a core that starts a
// granule as soon as that granule has arrived and a pipeline slot is
// free. The extra stall the CPU sees is LineCycles - transferCycles
// (never negative: the transfer itself is already accounted).
func (p PipelineTiming) LineCycles(blocks int, transferCycles uint64) uint64 {
	if blocks <= 0 {
		return transferCycles
	}
	// First granule arrives after its share of the transfer; subsequent
	// admissions are gated by both arrival and the initiation interval.
	firstArrival := transferCycles / uint64(blocks)
	lastStart := firstArrival + uint64((blocks-1)*p.II)
	if t := transferCycles; lastStart < t {
		// The last granule cannot start before it has fully arrived.
		lastStart = t
	}
	return lastStart + uint64(p.Latency)
}

// ExtraCycles is the stall beyond the transfer itself.
func (p PipelineTiming) ExtraCycles(blocks int, transferCycles uint64) uint64 {
	return p.LineCycles(blocks, transferCycles) - transferCycles
}

// Null is the plaintext baseline: no transformation, no cost. Every
// experiment reports overhead relative to a Null run.
type Null struct{}

// Name implements Engine.
func (Null) Name() string { return "plaintext" }

// BlockBytes implements Engine; 1 means any write is granule-aligned.
func (Null) BlockBytes() int { return 1 }

// Gates implements Engine.
func (Null) Gates() int { return 0 }

// EncryptLine implements Engine (identity).
func (Null) EncryptLine(_ uint64, dst, src []byte) { copy(dst, src) }

// DecryptLine implements Engine (identity).
func (Null) DecryptLine(_ uint64, dst, src []byte) { copy(dst, src) }

// PerAccessCycles implements Engine.
func (Null) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements Engine.
func (Null) ReadExtraCycles(uint64, int, uint64) uint64 { return 0 }

// WriteExtraCycles implements Engine.
func (Null) WriteExtraCycles(uint64, int) uint64 { return 0 }

// NeedsRMW implements Engine.
func (Null) NeedsRMW(int) bool { return false }
