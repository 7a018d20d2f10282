// Package gilmont models the engine of Gilmont, Legat and Quisquater
// ("Enhancing Security in the Memory Management Unit", Euromicro 1999)
// as the survey describes it: "a fetch prediction unit and pipelined
// triple-DES block cipher. They assume to keep the deciphering cost
// under 2.5% in term of performance cost. However, this work only
// addresses static code ciphering" — so data writes bypass the unit and
// the design never faces the smaller-than-block write problem.
//
// The fetch prediction unit exploits the sequentiality of instruction
// streams: while line N is being consumed it speculatively fetches and
// deciphers line N+1, so a correctly predicted miss pays (almost) no
// deciphering latency; only a mispredicted fetch (a jump crossing a line
// boundary to a cold line) exposes the 3-DES pipeline fill.
package gilmont

import (
	"crypto/cipher"
	"fmt"

	"repro/internal/crypto/des"
	"repro/internal/sim/addrmap"
)

const (
	// pipelineLatency is the fully pipelined 3-DES core's depth: 48
	// Feistel stages (the paper's pipeline runs one round per stage),
	// issuing one block per cycle.
	pipelineLatency = 3 * des.Rounds
	// predictedCost is the residual cycles on a correct prediction: the
	// handoff from the prediction buffer.
	predictedCost = 1
	// gates is the area estimate: the 48-stage pipelined 3-DES core.
	gates = 120_000
)

// Engine is a configured Gilmont unit.
type Engine struct {
	tdes cipher.Block
	// predicted is the line address the prediction unit has pre-deciphered.
	predicted uint64
	hasPred   bool
	// Stats
	Hits, Misses uint64 // prediction hits/misses on enciphered fills
}

// New builds the engine from a 3-DES key (16 or 24 bytes).
func New(key []byte) (*Engine, error) {
	t, err := des.NewTriple(key)
	if err != nil {
		return nil, fmt.Errorf("gilmont: %w", err)
	}
	return &Engine{tdes: t}, nil
}

// Name implements edu.Engine.
func (e *Engine) Name() string { return "gilmont-3des" }

// BlockBytes implements edu.Engine.
func (e *Engine) BlockBytes() int { return des.BlockSize }

// Gates implements edu.Engine.
func (e *Engine) Gates() int { return gates }

// isCode reports whether the line at addr falls in the ciphered region:
// addresses below addrmap.CodeLimit are code (enciphered, predicted);
// the rest are data and pass through in clear, per the static-code-only
// design.
func (e *Engine) isCode(addr uint64) bool { return addr < addrmap.CodeLimit }

// EncryptLine implements edu.Engine: ECB 3-DES over code lines, identity
// over data (static code ciphering only).
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) {
	if !e.isCode(addr) {
		copy(dst, src)
		return
	}
	for off := 0; off+des.BlockSize <= len(src); off += des.BlockSize {
		e.tdes.Encrypt(dst[off:off+des.BlockSize], src[off:off+des.BlockSize])
	}
}

// DecryptLine implements edu.Engine.
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) {
	if !e.isCode(addr) {
		copy(dst, src)
		return
	}
	for off := 0; off+des.BlockSize <= len(src); off += des.BlockSize {
		e.tdes.Decrypt(dst[off:off+des.BlockSize], src[off:off+des.BlockSize])
	}
}

// PerAccessCycles implements edu.Engine.
func (e *Engine) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: the prediction logic.
func (e *Engine) ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64 {
	if !e.isCode(addr) {
		return 0 // data passes the unit in clear
	}
	predictedHit := e.hasPred && e.predicted == addr
	// Whatever happens, the unit now begins pre-deciphering the next
	// sequential line.
	e.predicted = addr + uint64(lineBytes)
	e.hasPred = true
	if predictedHit {
		e.Hits++
		return predictedCost
	}
	e.Misses++
	// Mispredicted (or first) fill: the line streams through the
	// pipelined core as it arrives; the CPU waits for the critical
	// first block's pipeline fill.
	return pipelineLatency
}

// WriteExtraCycles implements edu.Engine: static code is never written
// back at run time; data lines pass in clear.
func (e *Engine) WriteExtraCycles(addr uint64, lineBytes int) uint64 {
	if !e.isCode(addr) {
		return 0
	}
	blocks := (lineBytes + des.BlockSize - 1) / des.BlockSize
	return uint64(pipelineLatency + blocks - 1)
}

// NeedsRMW implements edu.Engine: the design "is not confronted to
// smaller-than-block-size memory operations" because data is in clear.
func (e *Engine) NeedsRMW(int) bool { return false }

// PredictionRate reports the fraction of enciphered fills whose line was
// correctly predicted.
func (e *Engine) PredictionRate() float64 {
	d := e.Hits + e.Misses
	if d == 0 {
		return 0
	}
	return float64(e.Hits) / float64(d)
}
