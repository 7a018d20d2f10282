// The flat authenticators: the baseline the trees are measured against.
// The same edu.Verifier seam and, by default, the same GMAC tag unit,
// but no tree — which is exactly what makes the comparison in E20
// meaningful: the delta is the structure, not the hash. E17 swaps in
// the HMAC-SHA256 tag unit of the keyed-hash designs the survey cites.

package authtree

import (
	"fmt"

	"repro/internal/crypto/ghash"
	"repro/internal/crypto/keyedhash"
	"repro/internal/edu"
)

// FlatConfig assembles a flat (tree-less) authenticator.
type FlatConfig struct {
	// Key keys the line tags: 16 bytes (AES-128) for GMAC, any
	// non-empty length under HMAC.
	Key []byte
	// Fresh adds an on-chip per-line version counter table: replay is
	// detected, but on-chip area grows linearly with protected memory —
	// the scaling problem the trees exist to solve.
	Fresh bool
	// ProtectedLines bounds the counter table; required when Fresh.
	ProtectedLines int
	// HMAC selects a truncated HMAC-SHA256 tag unit (crypto/keyedhash,
	// edu.MACUnitGates of area) instead of GMAC (edu.GHASHUnitGates).
	HMAC bool
}

// tagUnit computes a line's truncated tag over addr ‖ version ‖ ct:
// *ghash.Key or *keyedhash.MAC.
type tagUnit interface {
	TagLine(addr, version uint64, data []byte) ghash.Tag
}

// Flat is a per-line MAC authenticator: tags live in external memory
// (tamperable), versions — when Fresh — in on-chip SRAM. Without
// freshness, a replayed stale (line, tag) pair verifies: the rollback
// attack the survey's credit-counter examples worry about.
type Flat struct {
	cfg  FlatConfig
	unit tagUnit
	ext  map[uint64]ghash.Tag
	ver  map[uint64]uint64
}

// NewFlat builds a flat authenticator.
func NewFlat(cfg FlatConfig) (*Flat, error) {
	switch {
	case cfg.HMAC && len(cfg.Key) == 0:
		return nil, fmt.Errorf("authtree: empty HMAC key")
	case !cfg.HMAC && len(cfg.Key) != ghash.KeySize:
		return nil, fmt.Errorf("authtree: key must be %d bytes, got %d", ghash.KeySize, len(cfg.Key))
	case cfg.Fresh && cfg.ProtectedLines <= 0:
		return nil, fmt.Errorf("authtree: freshness requires a positive ProtectedLines bound")
	}
	f := &Flat{cfg: cfg, ext: make(map[uint64]ghash.Tag)}
	if cfg.HMAC {
		mac := new(keyedhash.MAC)
		mac.Init(cfg.Key)
		f.unit = mac
	} else {
		f.unit = ghash.NewKey(cfg.Key)
	}
	if cfg.Fresh {
		f.ver = make(map[uint64]uint64)
	}
	return f, nil
}

// Name implements edu.Verifier.
func (f *Flat) Name() string {
	if f.cfg.Fresh {
		return "flat-fresh"
	}
	return "flat-mac"
}

// Gates implements edu.Verifier: the tag datapath plus — under
// freshness — the flat on-chip counter table, charged at 8 bytes per
// protected line through the shared edu.SRAMGatesPerByte rule so the
// figure is directly comparable with the trees.
func (f *Flat) Gates() int {
	g := edu.GHASHUnitGates
	if f.cfg.HMAC {
		g = edu.MACUnitGates
	}
	if f.cfg.Fresh {
		g += f.cfg.ProtectedLines * 8 * edu.SRAMGatesPerByte
	}
	return g
}

func (f *Flat) version(addr uint64) uint64 {
	if f.ver == nil {
		return 0
	}
	return f.ver[addr]
}

// VerifyRead implements edu.Verifier: recompute the tag and compare
// against the external store. With no root anchor, a consistent stale
// pair passes — flat-mac accepts replay by construction. A line never
// seen before enrolls only as unwritten (all-zero) DRAM.
func (f *Flat) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	stall := uint64(tagCycles)
	if f.ver != nil {
		stall++ // on-chip counter table lookup
	}
	want := f.unit.TagLine(addr, f.version(addr), ct)
	stored, enrolled := f.ext[addr]
	if !enrolled && unwritten(ct) {
		f.ext[addr] = want //repro:allow enrollment inserts once per line; steady-state reads never reach here
		return stall, true
	}
	return stall, enrolled && want == stored
}

// UpdateWrite implements edu.Verifier.
func (f *Flat) UpdateWrite(addr uint64, ct []byte) uint64 {
	stall := uint64(tagCycles)
	if f.ver != nil {
		f.ver[addr]++ //repro:allow sparse counter table; steady-state bumps hit existing keys
		stall++
	}
	//repro:allow sparse external tag store; steady-state writes hit existing keys
	f.ext[addr] = f.unit.TagLine(addr, f.version(addr), ct)
	return stall
}

// TagAt returns the externally stored tag (attacker-readable).
func (f *Flat) TagAt(addr uint64) ([ghash.TagBytes]byte, bool) {
	tag, ok := f.ext[addr]
	return tag, ok
}

// TamperTag overwrites the external tag store.
func (f *Flat) TamperTag(addr uint64, tag [ghash.TagBytes]byte) { f.ext[addr] = tag } //repro:allow attack-harness tamper write; per-strike, timing runs never call it
