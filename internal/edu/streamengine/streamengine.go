// Package streamengine implements the stream-cipher EDU of the survey's
// Figure 2a placed between cache and memory controller: the
// address-seeded Geffe keystream of stream.PadSource, plus an XOR gate
// on the data path.
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

// Engine is a configured stream EDU.
type Engine struct {
	pads *stream.PadSource
}

// New builds the engine over an address-indexed pad source.
func New(pads *stream.PadSource) (*Engine, error) {
	if pads == nil {
		return nil, fmt.Errorf("streamengine: nil pad source")
	}
	return &Engine{pads: pads}, nil
}

// Name implements edu.Engine.
func (e *Engine) Name() string { return "stream" }

// BlockBytes implements edu.Engine: XOR is byte-granular, no RMW ever.
func (e *Engine) BlockBytes() int { return 1 }

// Gates implements edu.Engine: the keystream generator.
func (e *Engine) Gates() int { return stream.GeneratorGates }

// EncryptLine implements edu.Engine. The pad is address-indexed, so the
// transform is valid for any slice at its own address.
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) { e.pads.XOR(addr, dst, src) }

// DecryptLine implements edu.Engine (XOR is its own inverse).
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) { e.pads.XOR(addr, dst, src) }

// PerAccessCycles implements edu.Engine.
func (e *Engine) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: generation starts when the
// address is issued and runs concurrently with the external fetch. The
// survey's §4 constraint — "the time to create the key stream
// corresponding to a cache line must be equal, in the worst case, to an
// external memory data fetch otherwise it again implies important
// performance loss" — is exactly this max(0, ks − fetch) term.
func (e *Engine) ReadExtraCycles(_ uint64, lineBytes int, transferCycles uint64) uint64 {
	ks := uint64(lineBytes * stream.CyclesPerByte)
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
