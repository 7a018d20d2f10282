// The memory-authentication side of the EDU: the survey's closing
// future-work item asks for integrity against modification of fetched
// instructions, and the AEGIS direction answers it with hash trees over
// protected DRAM. Verifier is the seam that keeps the two concerns
// orthogonal: any confidentiality Engine composes with any
// authenticator, because the SoC drives them independently on the same
// miss/writeback traffic.

package edu

// Verifier authenticates the lines crossing the chip boundary. The SoC
// calls VerifyRead on every inbound line (fill, non-resident
// write-through recovery, debug reads) and UpdateWrite on every
// outbound line (writeback, write-through, image install), passing the
// ciphertext exactly as it appears on the probed bus — authentication
// covers what the adversary can touch, not the plaintext.
//
// Implementations are stateful (tag stores, counters, node caches) and
// single-goroutine, like engines. The returned stall is the
// authenticator-side cycle cost of the operation; it depends on
// internal cache state, so the SoC charges it at call time rather than
// recomputing it.
type Verifier interface {
	// Name identifies the authenticator in reports.
	Name() string
	// Gates estimates the ON-CHIP silicon cost in gate equivalents:
	// datapath plus whatever SRAM the scheme holds inside the trust
	// boundary (counter tables, node caches, the tree root). External
	// tag/tree storage is intentionally excluded — it is untrusted
	// DRAM. SRAM is charged at SRAMGatesPerByte; see the constant.
	Gates() int
	// VerifyRead authenticates the inbound ciphertext line at the
	// line-aligned addr. ok=false is a detected tamper: the SoC
	// responds fail-stop (zeroes the line, counts the violation,
	// charges the violation trap).
	VerifyRead(addr uint64, ct []byte) (stall uint64, ok bool)
	// UpdateWrite absorbs an outbound ciphertext line at the
	// line-aligned addr: recompute its tag, bump freshness state, and
	// propagate through whatever structure the scheme maintains.
	UpdateWrite(addr uint64, ct []byte) (stall uint64)
}

// SRAMGatesPerByte is the accounting rule every authenticator's Gates
// figure uses for on-chip SRAM: ~12 gate equivalents per byte (6T
// bitcells plus decode/sense amortized). The flat freshness counter
// table and the tree node caches of sim/authtree, and any future
// on-chip store, all charge area through this one constant, so the gate
// columns of E17 and E20 are directly comparable.
const SRAMGatesPerByte = 12

// GHASHUnitGates approximates a pipelined GF(2^128) multiply-
// accumulate datapath — the Carter–Wegman tag unit of the tree
// authenticators and the default flat one. Substantially smaller than a
// full SHA-256 datapath (MACUnitGates), which is the point of universal
// hashing on the miss path. The AES block that masks a GMAC tag is not
// charged here: it is assumed shared with an on-chip AES core.
const GHASHUnitGates = 14_000

// MACUnitGates approximates a keyed-hash (HMAC-SHA256) datapath — the
// tag unit of the flat authenticator E17 builds.
const MACUnitGates = 25_000
