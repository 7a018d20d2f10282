// Package integrity implements the survey's closing future-work item:
// "it might also be relevant to take into account the problem of
// integrity, to thwart attacks based on the modification of the fetched
// instructions" (§5). It wraps any confidentiality engine with a
// per-line authenticator, turning the Figure 2c EDU into an
// authenticated-encryption unit in the style the General Instrument
// patent sketches ("authenticate the data coming from external memory
// thanks to a keyed hash algorithm") and AEGIS develops fully.
//
// Three active attacks define the requirement (see internal/attack's
// Tamper* helpers):
//
//   - spoofing: overwrite external memory with attacker bytes;
//   - splicing (relocation): copy valid ciphertext from address A to B;
//   - replay: restore a stale ciphertext previously valid at the SAME
//     address.
//
// A keyed MAC over (line ‖ address) stops spoofing and splicing. Replay
// additionally needs freshness — a per-line version counter mixed into
// the MAC, checked against an on-chip counter table (the direction that
// leads to AEGIS's integrity trees; the table here is the flat on-chip
// variant, with its area charged honestly).
package integrity

import (
	"crypto/hmac"
	"encoding/binary"
	"fmt"

	"repro/internal/crypto/keyedhash"
	"repro/internal/edu"
)

// TagBytes is the truncated MAC stored per line (64-bit tags, the
// common hardware choice of the era).
const TagBytes = 8

// Level selects how much of the attack surface is closed.
type Level int

const (
	// MACOnly authenticates line content and address: stops spoofing
	// and splicing; replay of a stale (line, tag) pair still verifies.
	MACOnly Level = iota
	// MACWithFreshness adds per-line version counters: stops replay too.
	MACWithFreshness
)

// String names the level.
func (l Level) String() string {
	if l == MACWithFreshness {
		return "mac+freshness"
	}
	return "mac"
}

// Config assembles an integrity wrapper.
type Config struct {
	// Inner is the confidentiality engine being wrapped (required).
	Inner edu.Engine
	// MACKey keys the HMAC (any length).
	MACKey []byte
	// Level selects MACOnly or MACWithFreshness.
	Level Level
	// MACCycles is the authenticator's pipeline cost per line (it runs
	// concurrently with decryption; only its tail shows). Default 8.
	MACCycles int
	// ProtectedLines bounds the freshness counter table (on-chip SRAM);
	// required for MACWithFreshness.
	ProtectedLines int
}

// Engine is an authenticated bus-encryption unit. The MAC store lives
// with the ciphertext in external memory (tags are themselves covered
// by the address binding); the freshness counters live on-chip.
type Engine struct {
	cfg  Config
	hmac keyedhash.MAC // reusable key schedule; zero allocs per tag
	// hdr is the (addr ‖ version) MAC header. It lives in the struct
	// because a stack array passed through the hash.Hash interface call
	// escapes to the heap.
	hdr      [16]byte
	tags     map[uint64][TagBytes]byte // external tag memory (modeled here)
	versions map[uint64]uint64         // on-chip counter table
	// Violations counts failed verifications — the detection events the
	// survey's future work asks for.
	Violations uint64
	// Verified counts successful line verifications.
	Verified uint64
}

// New builds the wrapper.
func New(cfg Config) (*Engine, error) {
	if cfg.Inner == nil {
		return nil, fmt.Errorf("integrity: nil inner engine")
	}
	if len(cfg.MACKey) == 0 {
		return nil, fmt.Errorf("integrity: empty MAC key")
	}
	if cfg.MACCycles == 0 {
		cfg.MACCycles = 8
	}
	if cfg.MACCycles < 0 {
		return nil, fmt.Errorf("integrity: negative MAC cost")
	}
	if cfg.Level == MACWithFreshness && cfg.ProtectedLines <= 0 {
		return nil, fmt.Errorf("integrity: freshness requires a positive ProtectedLines bound")
	}
	e := &Engine{
		cfg:      cfg,
		tags:     make(map[uint64][TagBytes]byte),
		versions: make(map[uint64]uint64),
	}
	e.hmac.Init(cfg.MACKey)
	return e, nil
}

// Name implements edu.Engine.
func (e *Engine) Name() string {
	return e.cfg.Inner.Name() + "+" + e.cfg.Level.String() //repro:allow name formatting runs once per report, never per reference
}

// BlockBytes implements edu.Engine.
func (e *Engine) BlockBytes() int { return e.cfg.Inner.BlockBytes() }

// CounterBytes is the per-line freshness counter width in the on-chip
// table.
const CounterBytes = 8

// counterTableGates is the on-chip SRAM cost of the freshness table:
// CounterBytes per protected line, charged through the shared
// edu.SRAMGatesPerByte accounting rule — the same rule the sim/authtree
// verifiers use for their node caches, so the E17 and E20 gate/area
// columns are directly comparable.
func (e *Engine) counterTableGates() int {
	if e.cfg.Level != MACWithFreshness {
		return 0
	}
	return e.cfg.ProtectedLines * CounterBytes * edu.SRAMGatesPerByte
}

// MACUnitGates approximates the keyed-hash datapath.
const MACUnitGates = 25_000

// Gates implements edu.Engine: inner engine + MAC datapath + counter
// table. The counter table is the scaling problem that motivates
// AEGIS's tree (its cost grows with protected memory, not with cache).
func (e *Engine) Gates() int {
	return e.cfg.Inner.Gates() + MACUnitGates + e.counterTableGates()
}

// mac computes the truncated authenticator over (addr ‖ version ‖ line)
// by streaming the header and line through the engine's reusable HMAC
// state: no per-call message buffer, no per-call key schedule.
//
//repro:hotpath
func (e *Engine) mac(addr, version uint64, line []byte) [TagBytes]byte {
	binary.BigEndian.PutUint64(e.hdr[0:8], addr)
	binary.BigEndian.PutUint64(e.hdr[8:16], version)
	e.hmac.Reset()
	e.hmac.Write(e.hdr[:])
	e.hmac.Write(line)
	full := e.hmac.SumFixed()
	var tag [TagBytes]byte
	copy(tag[:], full[:TagBytes])
	return tag
}

// EncryptLine implements edu.Engine: encrypt through the inner engine
// and deposit a fresh tag (bumping the version under freshness).
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) {
	if e.cfg.Level == MACWithFreshness {
		e.versions[addr]++ //repro:allow sparse counter table; steady-state bumps hit existing keys
	}
	//repro:allow sparse external tag store; steady-state writes hit existing keys
	e.tags[addr] = e.mac(addr, e.versions[addr], src)
	e.cfg.Inner.EncryptLine(addr, dst, src)
}

// DecryptLine implements edu.Engine: decrypt, then verify the line
// against its stored tag and current version. Verification failures are
// counted, and the line is zeroed — the hardware's fail-stop response
// (a real part would raise a security exception).
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) {
	e.cfg.Inner.DecryptLine(addr, dst, src)
	tag, ok := e.tags[addr]
	if !ok {
		// First sight of a never-written line: enroll it, as the boot
		// firmware of a real part would when initializing protected
		// memory. Attacks against enrolled lines are what matter.
		//repro:allow enrollment inserts once per line; steady-state reads never reach here
		e.tags[addr] = e.mac(addr, e.versions[addr], dst)
		e.Verified++
		return
	}
	want := e.mac(addr, e.versions[addr], dst)
	if !hmac.Equal(want[:], tag[:]) {
		e.Violations++
		clear(dst)
		return
	}
	e.Verified++
}

// TamperTag lets the attack harness overwrite a stored tag (the tag
// memory is external and writable by the adversary).
func (e *Engine) TamperTag(addr uint64, tag [TagBytes]byte) { e.tags[addr] = tag } //repro:allow attack-harness tamper write; per-strike, timing runs never call it

// TagAt returns the stored tag for a line (attacker-readable).
func (e *Engine) TagAt(addr uint64) ([TagBytes]byte, bool) {
	t, ok := e.tags[addr]
	return t, ok
}

// PerAccessCycles implements edu.Engine.
func (e *Engine) PerAccessCycles() uint64 { return e.cfg.Inner.PerAccessCycles() }

// ReadExtraCycles implements edu.Engine: the MAC pipeline runs beside
// the decryptor; its tail is additive (and the tag fetch rides the same
// burst). Freshness adds one on-chip table lookup cycle.
func (e *Engine) ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64 {
	cost := e.cfg.Inner.ReadExtraCycles(addr, lineBytes, transferCycles) + uint64(e.cfg.MACCycles)
	if e.cfg.Level == MACWithFreshness {
		cost++
	}
	return cost
}

// WriteExtraCycles implements edu.Engine.
func (e *Engine) WriteExtraCycles(addr uint64, lineBytes int) uint64 {
	cost := e.cfg.Inner.WriteExtraCycles(addr, lineBytes) + uint64(e.cfg.MACCycles)
	if e.cfg.Level == MACWithFreshness {
		cost++
	}
	return cost
}

// NeedsRMW implements edu.Engine: authentication is per line, so any
// partial write must rebuild the whole line's tag — integrity makes the
// §2.2 write problem strictly worse.
func (e *Engine) NeedsRMW(writeBytes int) bool {
	return e.cfg.Inner.NeedsRMW(writeBytes) || writeBytes < TagBytes
}
