// Package streamengine implements the stream-cipher EDU of the survey's
// Figure 2a placed between cache and memory controller: a keystream
// generator seeded by the secret key and the line address, plus an XOR
// gate on the data path.
//
// Its defining timing property, argued in §2.2: "stream cipher seems to
// be more suitable in term of performance: the key stream generation can
// be parallelised with external data fetch. The shortcoming of block
// cipher cryptosystems is that deciphering cannot start until a complete
// block has been received." The engine therefore charges only the
// shortfall between keystream-generation time and the memory fetch it
// overlaps, plus one cycle for the XOR.
package streamengine

import (
	"fmt"

	"repro/internal/crypto/stream"
)

// keystreamCyclesPerByte is the generator's production rate in CPU
// cycles per keystream byte: an LFSR bank emitting 8 bits per cycle.
const keystreamCyclesPerByte = 1

// Config assembles a stream engine.
type Config struct {
	// Pads supplies address-indexed keystream pads.
	Pads *stream.PadSource
	// Gates is the area estimate.
	Gates int
}

// Engine is a configured stream EDU.
type Engine struct {
	cfg Config
	pad []byte // reusable pad scratch: the line transform must not allocate
}

// New builds the engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Pads == nil {
		return nil, fmt.Errorf("streamengine: nil pad source")
	}
	return &Engine{cfg: cfg, pad: make([]byte, cfg.Pads.LineSize())}, nil
}

// Name implements edu.Engine.
func (e *Engine) Name() string { return "stream" }

// BlockBytes implements edu.Engine: XOR is byte-granular, no RMW ever.
func (e *Engine) BlockBytes() int { return 1 }

// Gates implements edu.Engine.
func (e *Engine) Gates() int { return e.cfg.Gates }

// EncryptLine implements edu.Engine. The pad is line-indexed, so the
// transform is valid for any slice lying within one pad line.
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) { e.xor(addr, dst, src) }

// DecryptLine implements edu.Engine (XOR is its own inverse).
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) { e.xor(addr, dst, src) }

func (e *Engine) xor(addr uint64, dst, src []byte) {
	ls := e.cfg.Pads.LineSize()
	pad := e.pad
	for off := 0; off < len(src); off += ls {
		e.cfg.Pads.Pad(pad, addr+uint64(off))
		n := len(src) - off
		if n > ls {
			n = ls
		}
		for i := 0; i < n; i++ {
			dst[off+i] = src[off+i] ^ pad[i]
		}
	}
}

// PerAccessCycles implements edu.Engine.
func (e *Engine) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: generation starts when the
// address is issued and runs concurrently with the external fetch. The
// survey's §4 constraint — "the time to create the key stream
// corresponding to a cache line must be equal, in the worst case, to an
// external memory data fetch otherwise it again implies important
// performance loss" — is exactly this max(0, ks − fetch) term.
func (e *Engine) ReadExtraCycles(_ uint64, lineBytes int, transferCycles uint64) uint64 {
	ks := uint64(lineBytes * keystreamCyclesPerByte)
	if ks > transferCycles {
		return ks - transferCycles + 1
	}
	return 1 // the XOR gate
}

// WriteExtraCycles implements edu.Engine: the pad for an outbound line
// is likewise precomputable; only the XOR shows.
func (e *Engine) WriteExtraCycles(_ uint64, lineBytes int) uint64 { return 1 }

// NeedsRMW implements edu.Engine: never, XOR is byte-addressable.
func (e *Engine) NeedsRMW(int) bool { return false }
