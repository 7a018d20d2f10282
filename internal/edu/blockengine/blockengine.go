// Package blockengine implements the generic block-cipher EDU of the
// survey's Figure 2b/2c: any block cipher, in one of three operating
// modes, with a hardware timing model given as a pipeline descriptor.
//
// The three modes span the survey's design space:
//
//   - ECB: simplest and random-access friendly, but deterministic
//     ("a same data will be ciphered to the same value; which is the
//     main security weakness of that mode").
//   - LineCBC: the AEGIS-style compromise — CBC chained within one cache
//     line with an address-derived IV, so lines stay independently
//     addressable while identical plaintexts differ. The IV takes a
//     per-line write counter (modes.IVCounter), AEGIS's fix for the
//     birthday attack on a fixed random vector.
//   - CTR: the block cipher driven as a keystream generator from the bus
//     address; the pad is computable before the data arrives, giving the
//     stream cipher's latency-hiding with a block cipher's core.
package blockengine

import (
	"crypto/cipher"
	"fmt"

	"repro/internal/crypto/modes"
	"repro/internal/edu"
)

// Mode selects the operating mode.
type Mode int

const (
	// ECB enciphers each cipher block independently.
	ECB Mode = iota
	// LineCBC chains blocks within one line, IV bound to the address.
	LineCBC
	// CTR XORs data with an address-indexed pad.
	CTR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ECB:
		return "ECB"
	case LineCBC:
		return "line-CBC"
	case CTR:
		return "CTR"
	default:
		return "unknown"
	}
}

// Config assembles a block engine.
type Config struct {
	// Name labels the engine in reports.
	Name string
	// Cipher is the block cipher core.
	Cipher cipher.Block
	// Mode is the operating mode.
	Mode Mode
	// Timing describes the hardware core (latency / initiation interval).
	Timing edu.PipelineTiming
	// Gates is the area estimate for the survey table.
	Gates int
	// Salt keys the address-derived IVs (LineCBC) or the CTR nonce.
	Salt uint64
	// WholeLineStall, when true, forbids critical-word-first forwarding:
	// "the fetch instruction cannot be provided to the processor until an
	// entire cache block is deciphered" (the AEGIS behaviour). When
	// false, the CPU resumes after the first granule's pipeline fill.
	WholeLineStall bool
}

// Engine is a configured block-cipher EDU.
type Engine struct {
	cfg  Config
	ecb  *modes.ECB
	lcbc *modes.BlockCBC
	ctr  *modes.CTR
}

// New builds the engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Cipher == nil {
		return nil, fmt.Errorf("blockengine: nil cipher")
	}
	if cfg.Timing.Latency <= 0 || cfg.Timing.II <= 0 {
		return nil, fmt.Errorf("blockengine: bad timing %+v", cfg.Timing)
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("block-%s", cfg.Mode)
	}
	e := &Engine{cfg: cfg}
	switch cfg.Mode {
	case ECB:
		e.ecb = modes.NewECB(cfg.Cipher)
	case LineCBC:
		e.lcbc = modes.NewBlockCBC(cfg.Cipher, modes.IVCounter, cfg.Salt)
	case CTR:
		e.ctr = modes.NewCTR(cfg.Cipher, cfg.Salt)
	default:
		return nil, fmt.Errorf("blockengine: unknown mode %d", cfg.Mode)
	}
	return e, nil
}

// Name implements edu.Engine.
func (e *Engine) Name() string { return e.cfg.Name }

// BlockBytes implements edu.Engine. CTR mode is byte-granular on writes
// (the pad XOR needs no enclosing block), so it reports 1.
func (e *Engine) BlockBytes() int {
	if e.cfg.Mode == CTR {
		return 1
	}
	return e.cfg.Cipher.BlockSize()
}

// Gates implements edu.Engine.
func (e *Engine) Gates() int { return e.cfg.Gates }

// cipherBlocks is the granule count for a line of n bytes.
func (e *Engine) cipherBlocks(n int) int {
	bs := e.cfg.Cipher.BlockSize()
	return (n + bs - 1) / bs
}

// EncryptLine implements edu.Engine.
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) {
	switch e.cfg.Mode {
	case ECB:
		e.ecb.Encrypt(dst, src)
	case LineCBC:
		e.lcbc.EncryptBlockAt(addr, dst, src)
	case CTR:
		e.ctr.XOR(dst, src, addr/uint64(e.cfg.Cipher.BlockSize()))
	}
}

// DecryptLine implements edu.Engine.
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) {
	switch e.cfg.Mode {
	case ECB:
		e.ecb.Decrypt(dst, src)
	case LineCBC:
		e.lcbc.DecryptBlockAt(addr, dst, src)
	case CTR:
		e.ctr.XOR(dst, src, addr/uint64(e.cfg.Cipher.BlockSize()))
	}
}

// PerAccessCycles implements edu.Engine.
func (e *Engine) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine.
func (e *Engine) ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64 {
	blocks := e.cipherBlocks(lineBytes)
	switch e.cfg.Mode {
	case CTR:
		// The pad is a pure function of the address, so its generation
		// overlaps the external fetch; only the shortfall (if the pad
		// pipeline is slower than the bus) plus the XOR shows.
		padCycles := uint64(e.cfg.Timing.Latency + (blocks-1)*e.cfg.Timing.II)
		if padCycles > transferCycles {
			return padCycles - transferCycles + 1
		}
		return 1
	default:
		if e.cfg.WholeLineStall {
			// CPU waits for the last block to clear the pipeline.
			return e.cfg.Timing.ExtraCycles(blocks, transferCycles)
		}
		// Critical-word-first: the CPU resumes once the first granule is
		// through the pipeline; the rest decipher in its shadow.
		return uint64(e.cfg.Timing.Latency)
	}
}

// WriteExtraCycles implements edu.Engine.
func (e *Engine) WriteExtraCycles(addr uint64, lineBytes int) uint64 {
	blocks := e.cipherBlocks(lineBytes)
	switch e.cfg.Mode {
	case CTR:
		return 1 // pad precomputed; XOR only
	case LineCBC:
		// CBC ENCRYPTION is inherently serial: block i needs ciphertext
		// i-1, so the pipeline degenerates to latency per block. This is
		// the write-path price of chaining the survey keeps stressing.
		return uint64(blocks * e.cfg.Timing.Latency)
	default: // ECB pipelines freely: fill once, then one block per II.
		return uint64(e.cfg.Timing.Latency + (blocks-1)*e.cfg.Timing.II)
	}
}

// NeedsRMW implements edu.Engine: any write smaller than the cipher
// block forces read-decipher-modify-recipher-write; CTR never does.
func (e *Engine) NeedsRMW(writeBytes int) bool {
	if e.cfg.Mode == CTR {
		return false
	}
	return writeBytes < e.cfg.Cipher.BlockSize()
}
