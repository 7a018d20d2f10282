// Package products instantiates each engine the survey catalogues,
// wired with the parameters the paper quotes:
//
//   - Best (Figure 3): substitution/transposition cipher, key on-chip.
//   - VLSI Technology (Figure 4): secure-DMA page transfers between
//     external and internal memory through a block-cipher core.
//   - General Instrument (Figure 5): 3-DES in CBC mode plus a keyed-hash
//     authenticator; robust but hostile to random access.
//   - Dallas DS5002FP and DS5240 (Figure 6): byte-wise bus cipher broken
//     by Kuhn, and its 64-bit DES/3-DES successor.
//   - XOM: pipelined AES, "a low latency of 14 latency cycles, while a
//     throughput of one encrypted/decrypted data per clock cycle".
//   - AEGIS: pipelined AES (300,000 gates) in CBC mode chained per cache
//     block, IV from block address plus a write counter.
package products

import (
	"fmt"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/bestcipher"
	"repro/internal/crypto/des"
	"repro/internal/crypto/ds5002"
	"repro/internal/crypto/modes"
	"repro/internal/edu"
	"repro/internal/edu/blockengine"
)

// Gate-count estimates for the survey's comparison table. AEGISGates is
// the paper's own figure; the others are order-of-magnitude estimates
// for cores of that era, used only for relative area comparison.
const (
	BestGates   = 3_000   // substitution tables + transposition mux
	DS5002Gates = 8_000   // byte scrambler + address encryptor
	DS5240Gates = 30_000  // iterative 3-DES datapath
	VLSIGates   = 45_000  // DES core + DMA engine + page buffer control
	GIGates     = 60_000  // 3-DES CBC + CBC-MAC datapaths
	XOMGates    = 200_000 // fully pipelined AES rounds
	AEGISGates  = 300_000 // the survey's quoted figure
)

// XOM builds the XOM-style engine: fully pipelined AES in ECB,
// latency 14 cycles, initiation interval 1.
func XOM(key []byte) (edu.Engine, error) {
	c, err := aes.New(key)
	if err != nil {
		return nil, fmt.Errorf("products: xom: %w", err)
	}
	return blockengine.New(blockengine.Config{
		Name:   "xom-aes",
		Cipher: c,
		Mode:   blockengine.ECB,
		Timing: edu.PipelineTiming{Latency: 14, II: 1},
		Gates:  XOMGates,
	})
}

// AEGIS builds the AEGIS-style engine: pipelined AES in per-cache-block
// CBC with address-bound counter IVs (blockengine.LineCBC); the survey:
// "to thwart the birthday attack it is possible to replace the random
// vector by a counter". The whole-line stall reproduces "the fetch
// instruction cannot be provided to the processor until an entire cache
// block is deciphered".
func AEGIS(key []byte, salt uint64) (edu.Engine, error) {
	c, err := aes.New(key)
	if err != nil {
		return nil, fmt.Errorf("products: aegis: %w", err)
	}
	return blockengine.New(blockengine.Config{
		Name:           "aegis-aes-cbc",
		Cipher:         c,
		Mode:           blockengine.LineCBC,
		Timing:         edu.PipelineTiming{Latency: 14, II: 1},
		Gates:          AEGISGates,
		Salt:           salt,
		WholeLineStall: true,
	})
}

// GeneralInstrument is the Figure 5 engine: 3-DES CBC chained across
// sequential lines with a keyed-hash authenticator. Chaining beyond one
// line is what makes random access expensive: a non-sequential line
// fetch must also obtain the predecessor ciphertext block to restart the
// chain, and the MAC check serializes on the line. The CBC-MAC itself is
// modelled by its cost alone: ReadExtraCycles and WriteExtraCycles
// serialize it on the line and GIGates counts its datapath; no tag is
// computed.
type GeneralInstrument struct {
	cbc *modes.BlockCBC // chain restart uses address-bound IVs
	// timing
	timing edu.PipelineTiming
	// chain state: last line address fetched, to detect random access
	lastLine uint64
	haveLast bool
}

// NewGeneralInstrument builds the engine from a 3-DES key (16/24
// bytes). The CBC-MAC is modelled by its cost alone, so it takes no
// key.
func NewGeneralInstrument(desKey []byte) (*GeneralInstrument, error) {
	t, err := des.NewTriple(desKey)
	if err != nil {
		return nil, fmt.Errorf("products: gi: %w", err)
	}
	return &GeneralInstrument{
		cbc:    modes.NewBlockCBC(t, modes.IVRandom, 0x6131),
		timing: edu.PipelineTiming{Latency: 3 * des.Rounds, II: 3 * des.Rounds}, // iterative core
	}, nil
}

// Name implements edu.Engine.
func (g *GeneralInstrument) Name() string { return "general-instrument-3des-cbc" }

// BlockBytes implements edu.Engine.
func (g *GeneralInstrument) BlockBytes() int { return des.BlockSize }

// Gates implements edu.Engine.
func (g *GeneralInstrument) Gates() int { return GIGates }

// EncryptLine implements edu.Engine.
func (g *GeneralInstrument) EncryptLine(addr uint64, dst, src []byte) {
	g.cbc.EncryptBlockAt(addr, dst, src)
}

// DecryptLine implements edu.Engine.
func (g *GeneralInstrument) DecryptLine(addr uint64, dst, src []byte) {
	g.cbc.DecryptBlockAt(addr, dst, src)
}

// PerAccessCycles implements edu.Engine.
func (g *GeneralInstrument) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: iterative 3-DES decryption of
// the whole line (CBC + MAC serialize it), plus a chain-restart penalty
// of one extra block time on non-sequential access — the "random data
// access problem".
func (g *GeneralInstrument) ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64 {
	blocks := (lineBytes + des.BlockSize - 1) / des.BlockSize
	// Iterative core, chained MAC: latency per block, serial.
	cost := uint64(blocks * g.timing.Latency)
	sequential := g.haveLast && addr == g.lastLine+uint64(lineBytes)
	g.lastLine, g.haveLast = addr, true
	if !sequential {
		// Chain restart: fetch + decipher the predecessor block.
		cost += uint64(g.timing.Latency) + transferCycles/uint64(blocks)
	}
	return cost
}

// WriteExtraCycles implements edu.Engine: serial CBC encryption plus the
// MAC pass over the line.
func (g *GeneralInstrument) WriteExtraCycles(_ uint64, lineBytes int) uint64 {
	blocks := (lineBytes + des.BlockSize - 1) / des.BlockSize
	return uint64(2 * blocks * g.timing.Latency)
}

// NeedsRMW implements edu.Engine.
func (g *GeneralInstrument) NeedsRMW(writeBytes int) bool { return writeBytes < des.BlockSize }

// Best is the Figure 3 engine: the patent cipher with its key in an
// on-chip register. The substitution/transposition network is shallow —
// two gate levels — so it runs at bus speed: latency 2 cycles per block,
// accepting a block every 2 cycles.
type Best struct {
	c *bestcipher.Cipher
}

// NewBest builds the engine from an 8-byte key.
func NewBest(key []byte) (*Best, error) {
	c, err := bestcipher.New(key)
	if err != nil {
		return nil, fmt.Errorf("products: best: %w", err)
	}
	return &Best{c}, nil
}

// Name implements edu.Engine.
func (b *Best) Name() string { return "best-1979" }

// BlockBytes implements edu.Engine.
func (b *Best) BlockBytes() int { return bestcipher.BlockSize }

// Gates implements edu.Engine.
func (b *Best) Gates() int { return BestGates }

// EncryptLine implements edu.Engine.
func (b *Best) EncryptLine(addr uint64, dst, src []byte) {
	for off := 0; off+bestcipher.BlockSize <= len(src); off += bestcipher.BlockSize {
		b.c.EncryptAt(addr+uint64(off), dst[off:off+bestcipher.BlockSize], src[off:off+bestcipher.BlockSize])
	}
}

// DecryptLine implements edu.Engine.
func (b *Best) DecryptLine(addr uint64, dst, src []byte) {
	for off := 0; off+bestcipher.BlockSize <= len(src); off += bestcipher.BlockSize {
		b.c.DecryptAt(addr+uint64(off), dst[off:off+bestcipher.BlockSize], src[off:off+bestcipher.BlockSize])
	}
}

// PerAccessCycles implements edu.Engine.
func (b *Best) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: the shallow network keeps pace
// with the bus; only its two-level latency shows.
func (b *Best) ReadExtraCycles(uint64, int, uint64) uint64 { return 2 }

// WriteExtraCycles implements edu.Engine.
func (b *Best) WriteExtraCycles(uint64, int) uint64 { return 2 }

// NeedsRMW implements edu.Engine.
func (b *Best) NeedsRMW(writeBytes int) bool { return writeBytes < bestcipher.BlockSize }

// DS5002 is the Figure 6 original: byte-granular bus cipher, zero
// buffering, runs at bus speed — and enciphers "by block of 8-bit
// instructions", the property Kuhn's attack exhausts in 256 guesses.
type DS5002 struct {
	d *ds5002.DS5002
}

// NewDS5002 builds the engine.
func NewDS5002(key []byte) (*DS5002, error) {
	d, err := ds5002.NewDS5002(key)
	if err != nil {
		return nil, fmt.Errorf("products: %w", err)
	}
	return &DS5002{d}, nil
}

// Name implements edu.Engine.
func (e *DS5002) Name() string { return "ds5002fp" }

// BlockBytes implements edu.Engine: one byte.
func (e *DS5002) BlockBytes() int { return 1 }

// Gates implements edu.Engine.
func (e *DS5002) Gates() int { return DS5002Gates }

// EncryptLine implements edu.Engine.
func (e *DS5002) EncryptLine(addr uint64, dst, src []byte) {
	for i := range src {
		dst[i] = e.d.EncryptByte(uint16(addr+uint64(i)), src[i])
	}
}

// DecryptLine implements edu.Engine.
func (e *DS5002) DecryptLine(addr uint64, dst, src []byte) {
	for i := range src {
		dst[i] = e.d.DecryptByte(uint16(addr+uint64(i)), src[i])
	}
}

// PerAccessCycles implements edu.Engine.
func (e *DS5002) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: one combinational stage.
func (e *DS5002) ReadExtraCycles(uint64, int, uint64) uint64 { return 1 }

// WriteExtraCycles implements edu.Engine.
func (e *DS5002) WriteExtraCycles(uint64, int) uint64 { return 1 }

// NeedsRMW implements edu.Engine: byte granularity never needs RMW.
func (e *DS5002) NeedsRMW(int) bool { return false }

// DS5240 is the Figure 6 successor: 64-bit DES/3-DES bus ciphering with
// an iterative core (one round per cycle).
type DS5240 struct {
	d      *ds5002.DS5240
	rounds int
}

// NewDS5240 builds the engine; key length selects DES (8) or 3-DES
// (16/24), and with it the iterative latency (16 or 48 rounds).
func NewDS5240(key []byte) (*DS5240, error) {
	d, err := ds5002.NewDS5240(key)
	if err != nil {
		return nil, fmt.Errorf("products: %w", err)
	}
	rounds := des.Rounds
	if len(key) > 8 {
		rounds = 3 * des.Rounds
	}
	return &DS5240{d, rounds}, nil
}

// Name implements edu.Engine.
func (e *DS5240) Name() string { return "ds5240" }

// BlockBytes implements edu.Engine.
func (e *DS5240) BlockBytes() int { return des.BlockSize }

// Gates implements edu.Engine.
func (e *DS5240) Gates() int { return DS5240Gates }

// EncryptLine implements edu.Engine.
func (e *DS5240) EncryptLine(addr uint64, dst, src []byte) {
	for off := 0; off+des.BlockSize <= len(src); off += des.BlockSize {
		e.d.EncryptBlockAt(addr+uint64(off), dst[off:off+des.BlockSize], src[off:off+des.BlockSize])
	}
}

// DecryptLine implements edu.Engine.
func (e *DS5240) DecryptLine(addr uint64, dst, src []byte) {
	for off := 0; off+des.BlockSize <= len(src); off += des.BlockSize {
		e.d.DecryptBlockAt(addr+uint64(off), dst[off:off+des.BlockSize], src[off:off+des.BlockSize])
	}
}

// PerAccessCycles implements edu.Engine.
func (e *DS5240) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: iterative core, one block in
// flight; blocks arrive faster than they decipher on a fast bus.
func (e *DS5240) ReadExtraCycles(_ uint64, lineBytes int, transferCycles uint64) uint64 {
	blocks := (lineBytes + des.BlockSize - 1) / des.BlockSize
	t := edu.PipelineTiming{Latency: e.rounds, II: e.rounds}
	return t.ExtraCycles(blocks, transferCycles)
}

// WriteExtraCycles implements edu.Engine.
func (e *DS5240) WriteExtraCycles(_ uint64, lineBytes int) uint64 {
	blocks := (lineBytes + des.BlockSize - 1) / des.BlockSize
	return uint64(blocks * e.rounds)
}

// NeedsRMW implements edu.Engine.
func (e *DS5240) NeedsRMW(writeBytes int) bool { return writeBytes < des.BlockSize }

// VLSI is the Figure 4 engine: "data transfers to and from the external
// memory are done page-by-page. All CPU external requests are managed by
// a secure DMA unit and communications between external and internal
// memory use an encryption / decryption core." The page buffer holds
// deciphered pages in internal memory; a line fill from a resident page
// is free of deciphering cost, while first touch of a page pays the full
// page decipherment. "This technique is viable provided that the OS is
// trusted" — the model takes that trust as given.
type VLSI struct {
	c        *modes.ECB
	timing   edu.PipelineTiming
	resident map[uint64]uint64 // page number -> last-use tick
	tick     uint64
	// Stats
	PageHits, PageFaults uint64
}

// The VLSI page geometry: 4 KiB DMA pages, 8 of them resident in
// internal memory.
const (
	vlsiPageBits = 12
	vlsiPages    = 8
)

// NewVLSI builds the engine around a DES core keyed by key.
func NewVLSI(key []byte) (*VLSI, error) {
	c, err := des.New(key)
	if err != nil {
		return nil, fmt.Errorf("products: vlsi: %w", err)
	}
	return &VLSI{
		c:        modes.NewECB(c),
		timing:   edu.PipelineTiming{Latency: des.Rounds, II: des.Rounds},
		resident: make(map[uint64]uint64),
	}, nil
}

// Name implements edu.Engine.
func (v *VLSI) Name() string { return "vlsi-secure-dma" }

// BlockBytes implements edu.Engine: inside the SoC the page buffer is
// byte-addressable, so CPU-visible writes never RMW.
func (v *VLSI) BlockBytes() int { return 1 }

// Gates implements edu.Engine (core + DMA; internal page RAM excluded,
// it replaces equivalent on-chip memory).
func (v *VLSI) Gates() int { return VLSIGates }

// EncryptLine implements edu.Engine.
func (v *VLSI) EncryptLine(_ uint64, dst, src []byte) { v.c.Encrypt(dst, src) }

// DecryptLine implements edu.Engine.
func (v *VLSI) DecryptLine(_ uint64, dst, src []byte) { v.c.Decrypt(dst, src) }

// PerAccessCycles implements edu.Engine.
func (v *VLSI) PerAccessCycles() uint64 { return 0 }

// PageFaultSetupCycles is the DMA descriptor/setup cost charged to the
// access that faults a page in.
const PageFaultSetupCycles = 32

// ReadExtraCycles implements edu.Engine: page-resident fills cost
// nothing extra. On a page fault the secure DMA unit serves the
// requested line first (deciphering just its blocks through the core)
// and streams the rest of the page in the background, so the faulting
// access pays DMA setup plus one line's decipherment, not the whole
// page. Background contention is not modeled; the trust assumption (the
// OS programs the DMA) is the patent's own.
func (v *VLSI) ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64 {
	page := addr >> vlsiPageBits
	v.tick++
	if _, ok := v.resident[page]; ok {
		v.resident[page] = v.tick //repro:allow LRU touch stores to an existing key; no growth on the hit path
		v.PageHits++
		return 0
	}
	v.PageFaults++
	if len(v.resident) >= vlsiPages {
		// Evict the least recently used page.
		var victim uint64
		var oldest uint64 = ^uint64(0)
		//repro:allow ticks are unique per access, so the min-tick victim is iteration-order independent
		for p, t := range v.resident {
			if t < oldest {
				oldest, victim = t, p
			}
		}
		delete(v.resident, victim)
	}
	v.resident[page] = v.tick //repro:allow demand paging; eviction above bounds the table, faults are off the steady-state path
	lineBlocks := (lineBytes + des.BlockSize - 1) / des.BlockSize
	return uint64(PageFaultSetupCycles + lineBlocks*v.timing.Latency)
}

// WriteExtraCycles implements edu.Engine: writes land in the internal
// page buffer; the DMA unit re-enciphers pages in the background.
func (v *VLSI) WriteExtraCycles(uint64, int) uint64 { return 0 }

// NeedsRMW implements edu.Engine.
func (v *VLSI) NeedsRMW(int) bool { return false }

// PageFaultRate reports faults / (hits + faults).
func (v *VLSI) PageFaultRate() float64 {
	d := v.PageHits + v.PageFaults
	if d == 0 {
		return 0
	}
	return float64(v.PageFaults) / float64(d)
}
