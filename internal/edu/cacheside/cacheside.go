// Package cacheside implements the survey's Figure 7b proposal: the EDU
// between the CPU core and the cache, so that even on-chip cache
// contents are ciphered. Section 4 of the paper dissects why this is
// "critical": it sits on the CPU–cache timing path, it demands an
// on-chip keystream memory "equivalent to the cache memory in term of
// size", and it "seems to provide no benefit in term of performance when
// compared to a stream cipher located between cache memory and memory
// controller". Experiment E11 reproduces that verdict, with the engine
// installed at soc.Config.Placement = edu.PlacementCPUCache.
package cacheside

import (
	"fmt"

	"repro/internal/crypto/stream"
)

// Config assembles a cache-side engine.
type Config struct {
	// Pads supplies the keystream; the deciphering key stream for a line
	// must be reproducible, so it is address-seeded like the Fig. 7a
	// stream engine — but here a copy is also held in on-chip RAM.
	Pads *stream.PadSource
	// CacheBytes is the cache capacity; the keystream store must match
	// it, and its area is what makes the scheme "unaffordable".
	CacheBytes int
}

const (
	// cacheAccessPenalty is the extra CPU cycles added to EVERY cache
	// access by the in-path XOR and keystream lookup ("modifying the
	// cache access time directly impacts the system performance").
	cacheAccessPenalty = 1
	// GatesPerKeystreamByte approximates on-chip SRAM cost in gate
	// equivalents per byte (6T cells plus decode/sense overhead).
	GatesPerKeystreamByte = 12
)

// Engine is a configured Figure 7b EDU.
type Engine struct {
	cfg Config
}

// New builds the engine.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.Pads == nil:
		return nil, fmt.Errorf("cacheside: nil pad source")
	case cfg.CacheBytes <= 0:
		return nil, fmt.Errorf("cacheside: cache size must be positive")
	}
	return &Engine{cfg: cfg}, nil
}

// Name implements edu.Engine.
func (e *Engine) Name() string { return "cpu<->cache stream" }

// BlockBytes implements edu.Engine.
func (e *Engine) BlockBytes() int { return 1 }

// Gates implements edu.Engine: generator plus the doubled on-chip
// memory — "to add an on-chip memory equivalent to the cache memory in
// term of size" — which dominates.
func (e *Engine) Gates() int {
	return stream.GeneratorGates + e.cfg.CacheBytes*GatesPerKeystreamByte
}

// EncryptLine / DecryptLine: the cache stores ciphertext, and that same
// ciphertext continues over the bus, so the line transform at the chip
// boundary is the identity on the already-ciphered bytes; but LoadImage
// and ReadPlain go through the engine, so the transform applied here is
// the pad XOR that the CPU-side unit performs.
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) { e.cfg.Pads.XOR(addr, dst, src) }

// DecryptLine implements edu.Engine.
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) { e.cfg.Pads.XOR(addr, dst, src) }

// PerAccessCycles implements edu.Engine: the defining cost of this
// placement — every hit pays it too.
func (e *Engine) PerAccessCycles() uint64 { return cacheAccessPenalty }

// ReadExtraCycles implements edu.Engine: on a miss the keystream for the
// incoming line must be generated (and parked in the keystream store)
// within the external fetch window; only the shortfall stalls. This is
// §4's constraint verbatim.
func (e *Engine) ReadExtraCycles(_ uint64, lineBytes int, transferCycles uint64) uint64 {
	ks := uint64(lineBytes * stream.CyclesPerByte)
	if ks > transferCycles {
		return ks - transferCycles
	}
	return 0
}

// WriteExtraCycles implements edu.Engine: outbound lines are already
// ciphertext in the cache; they leave as-is.
func (e *Engine) WriteExtraCycles(uint64, int) uint64 { return 0 }

// NeedsRMW implements edu.Engine.
func (e *Engine) NeedsRMW(int) bool { return false }
