// Package compressengine implements the survey's Figure 8 unit:
// compression composed with encryption between the cache and the memory
// controller. "Compression can improve the performance of the encryption
// unit by decreasing the data size to cipher and to decipher. In
// addition, compression can raise hopes for a gain of memory capacity,
// and also performance benefit due to lowered bus usage. ... Moreover,
// compression increases the message entropy and thus improves the
// efficiency of an encryption algorithm... Another benefit is that
// compression adds a layer of security."
//
// The engine compresses code-region lines (CodePack compresses code, not
// data), then hands the smaller payload to an optional inner encryption
// engine. Decompression hardware adds its decode latency to fills; the
// bus moves the compressed size (via edu.TransferSizer).
package compressengine

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/edu"
	"repro/internal/sim/addrmap"
)

// Config assembles the Figure 8 unit.
type Config struct {
	// Codec is the trained compressor.
	Codec *compress.Codec
	// Ratio is the measured compression ratio of the installed image
	// (original/compressed); the traffic model divides code-line bus
	// sizes by it.
	Ratio float64
	// Inner is the encryption engine applied after compression (Fig. 8
	// order); nil means compression-only (the CodePack baseline of E10).
	Inner edu.Engine
}

// decompressorGates is the decompressor's area estimate.
const decompressorGates = 20_000

// Engine is a configured compression(+encryption) unit.
type Engine struct{ cfg Config }

// New builds the engine.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.Codec == nil:
		return nil, fmt.Errorf("compressengine: nil codec")
	case cfg.Ratio <= 1.0:
		return nil, fmt.Errorf("compressengine: ratio %.3f must exceed 1", cfg.Ratio)
	}
	return &Engine{cfg}, nil
}

// Name implements edu.Engine.
func (e *Engine) Name() string {
	if e.cfg.Inner == nil {
		return "codepack"
	}
	return "codepack+" + e.cfg.Inner.Name() //repro:allow name formatting runs once per report, never per reference
}

// BlockBytes implements edu.Engine.
func (e *Engine) BlockBytes() int {
	if e.cfg.Inner == nil {
		return 1
	}
	return e.cfg.Inner.BlockBytes()
}

// Gates implements edu.Engine.
func (e *Engine) Gates() int {
	g := decompressorGates
	if e.cfg.Inner != nil {
		g += e.cfg.Inner.Gates()
	}
	return g
}

// isCode reports whether addr falls in the compressed region: only code,
// below addrmap.CodeLimit, compresses well.
func (e *Engine) isCode(addr uint64) bool { return addr < addrmap.CodeLimit }

// EncryptLine implements edu.Engine: the data path applies the inner
// cipher (the stored layout keeps line framing; compression affects the
// traffic and timing model, not the simulator's byte bookkeeping).
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) {
	if e.cfg.Inner != nil {
		e.cfg.Inner.EncryptLine(addr, dst, src)
		return
	}
	copy(dst, src)
}

// DecryptLine implements edu.Engine.
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) {
	if e.cfg.Inner != nil {
		e.cfg.Inner.DecryptLine(addr, dst, src)
		return
	}
	copy(dst, src)
}

// TransferBytes implements edu.TransferSizer: code lines cross the bus
// at the compressed size.
func (e *Engine) TransferBytes(addr uint64, lineBytes int) int {
	if !e.isCode(addr) {
		return lineBytes
	}
	n := int(float64(lineBytes) / e.cfg.Ratio)
	if n < 1 {
		n = 1
	}
	return n
}

// PerAccessCycles implements edu.Engine.
func (e *Engine) PerAccessCycles() uint64 { return 0 }

// DecodeStartupCycles is the decompressor's exposed startup: the index
// table lookup (which compression block, which bit offset) plus the
// decode pipeline fill. The decoder consumes compressed words as they
// arrive off the bus (the CodePack core sits in the memory controller
// for exactly this overlap), so beyond startup only a rate shortfall
// stalls the fill.
const DecodeStartupCycles = 4

// ReadExtraCycles implements edu.Engine: the decode overlaps the
// (shorter) compressed transfer; the exposed cost is the startup plus
// the amount by which decoding outlasts the transfer, plus the inner
// engine's cost over the smaller payload.
func (e *Engine) ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64 {
	var cost uint64
	if e.isCode(addr) {
		decode := uint64(lineBytes / 4 * e.cfg.Codec.DecodeCyclesPerInstr)
		cost += DecodeStartupCycles
		if decode > transferCycles {
			cost += decode - transferCycles
		}
	}
	if e.cfg.Inner != nil {
		n := lineBytes
		if e.isCode(addr) {
			n = e.TransferBytes(addr, lineBytes)
		}
		cost += e.cfg.Inner.ReadExtraCycles(addr, n, transferCycles)
	}
	return cost
}

// WriteExtraCycles implements edu.Engine: code is read-mostly; data
// writes pay only the inner engine.
func (e *Engine) WriteExtraCycles(addr uint64, lineBytes int) uint64 {
	if e.cfg.Inner == nil {
		return 0
	}
	n := lineBytes
	if e.isCode(addr) {
		n = e.TransferBytes(addr, lineBytes)
	}
	return e.cfg.Inner.WriteExtraCycles(addr, n)
}

// NeedsRMW implements edu.Engine.
func (e *Engine) NeedsRMW(writeBytes int) bool {
	if e.cfg.Inner == nil {
		return false
	}
	return e.cfg.Inner.NeedsRMW(writeBytes)
}
