// The flat authenticators: the baseline the trees are measured against.
// Same GMAC tag path and the same edu.Verifier seam, but no tree —
// which is exactly what makes the comparison in E20 meaningful: the
// delta is the structure, not the hash.

package authtree

import (
	"fmt"

	"repro/internal/crypto/ghash"
	"repro/internal/edu"
)

// FlatConfig assembles a flat (tree-less) authenticator.
type FlatConfig struct {
	// Key is the 16-byte AES-128 key of the GMAC line tags.
	Key []byte
	// Fresh adds an on-chip per-line version counter table: replay is
	// detected, but on-chip area grows linearly with protected memory —
	// the scaling problem the trees exist to solve.
	Fresh bool
	// ProtectedLines bounds the counter table; required when Fresh.
	ProtectedLines int
	// TagCycles is the per-line GMAC pipeline tail; default 8.
	TagCycles int
}

// Flat is a per-line MAC authenticator: tags live in external memory
// (tamperable), versions — when Fresh — in on-chip SRAM. Without
// freshness, a replayed stale (line, tag) pair verifies: the rollback
// attack the survey's credit-counter examples worry about.
type Flat struct {
	cfg        FlatConfig
	key        *ghash.Key
	ext        map[uint64]ghash.Tag
	ver        map[uint64]uint64
	Verified   uint64
	Violations uint64
}

// NewFlat builds a flat authenticator.
func NewFlat(cfg FlatConfig) (*Flat, error) {
	if len(cfg.Key) != ghash.KeySize {
		return nil, fmt.Errorf("authtree: key must be %d bytes, got %d", ghash.KeySize, len(cfg.Key))
	}
	if cfg.Fresh && cfg.ProtectedLines <= 0 {
		return nil, fmt.Errorf("authtree: freshness requires a positive ProtectedLines bound")
	}
	if cfg.TagCycles == 0 {
		cfg.TagCycles = 8
	}
	f := &Flat{cfg: cfg, key: ghash.NewKey(cfg.Key), ext: make(map[uint64]ghash.Tag)}
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

// Gates implements edu.Verifier: the GHASH datapath plus — under
// freshness — the flat on-chip counter table, charged at 8 bytes per
// protected line through the shared edu.SRAMGatesPerByte rule so the
// figure is directly comparable with edu/integrity and the trees.
func (f *Flat) Gates() int {
	g := edu.GHASHUnitGates
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
// pair passes — flat-mac accepts replay by construction.
func (f *Flat) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	stall := uint64(f.cfg.TagCycles)
	if f.ver != nil {
		stall++ // on-chip counter table lookup
	}
	want := f.key.TagLine(addr, f.version(addr), ct)
	stored, enrolled := f.ext[addr]
	if !enrolled {
		f.ext[addr] = want //repro:allow enrollment inserts once per line; steady-state reads never reach here
		f.Verified++
		return stall, true
	}
	if want != stored {
		f.Violations++
		return stall, false
	}
	f.Verified++
	return stall, true
}

// UpdateWrite implements edu.Verifier.
func (f *Flat) UpdateWrite(addr uint64, ct []byte) uint64 {
	stall := uint64(f.cfg.TagCycles)
	if f.ver != nil {
		f.ver[addr]++ //repro:allow sparse counter table; steady-state bumps hit existing keys
		stall++
	}
	//repro:allow sparse external tag store; steady-state writes hit existing keys
	f.ext[addr] = f.key.TagLine(addr, f.version(addr), ct)
	return stall
}

// TagAt returns the externally stored tag (attacker-readable).
func (f *Flat) TagAt(addr uint64) ([ghash.TagBytes]byte, bool) {
	tag, ok := f.ext[addr]
	return tag, ok
}

// TamperTag overwrites the external tag store.
func (f *Flat) TamperTag(addr uint64, tag [ghash.TagBytes]byte) { f.ext[addr] = tag } //repro:allow attack-harness tamper write; per-strike, timing runs never call it
