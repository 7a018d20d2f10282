// Package multikey implements the survey's other deferred topic: "it
// will not explore the key management mechanisms relative to
// multitasking operating systems; refer to [2]" (§1, pointing at Kuhn's
// TrustNo1 cryptoprocessor concept). In a multitasking system each
// process's external-memory image is ciphered under its own key, so a
// compromised or malicious process — or a probe correlating two
// processes — learns nothing across protection domains.
//
// The unit routes each bus line to the engine keyed for its address
// region (one region per process, assigned by the trusted kernel), and
// charges a key-reload penalty whenever consecutive transfers cross
// domains: the survey-era hardware held one expanded key schedule, and
// re-expansion/reload is the context-switch tax this extension measures
// (experiment E19).
package multikey

import (
	"fmt"
	"sort"

	"repro/internal/edu"
)

// Region binds an address range [Base, Limit) to a process's engine.
type Region struct {
	// Base is the region's first byte address.
	Base uint64
	// Limit is one past the region's last byte.
	Limit uint64
	// Engine is the per-process engine (its own key).
	Engine edu.Engine
	// Name labels the process in reports.
	Name string
}

// switchCycles is the key-reload penalty when the active domain changes
// between consecutive line transfers: reloading a retained key schedule
// from the on-chip key RAM (re-expansion would cost far more; retained
// schedules are the design point the key RAM area pays for).
const switchCycles = 20

// Engine is a configured multi-domain EDU.
type Engine struct {
	regions []Region
	// active is the index of the domain whose key schedule is loaded.
	active    int
	hasActive bool
	// Switches counts key reloads (the context-switch tax).
	Switches uint64
}

// New builds the unit over the process domains, which must be
// non-empty and must not overlap; every access must fall inside one.
func New(regions []Region) (*Engine, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("multikey: no regions")
	}
	rs := append([]Region{}, regions...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Base < rs[j].Base })
	for i, r := range rs {
		if r.Engine == nil {
			return nil, fmt.Errorf("multikey: region %q has no engine", r.Name)
		}
		if r.Limit <= r.Base {
			return nil, fmt.Errorf("multikey: region %q empty [%#x,%#x)", r.Name, r.Base, r.Limit)
		}
		if i > 0 && r.Base < rs[i-1].Limit {
			return nil, fmt.Errorf("multikey: regions %q and %q overlap", rs[i-1].Name, r.Name)
		}
	}
	return &Engine{regions: rs}, nil
}

// lookup finds the domain for addr (-1 if none).
func (e *Engine) lookup(addr uint64) int {
	// Binary search over sorted disjoint regions.
	lo, hi := 0, len(e.regions)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r := e.regions[mid]
		switch {
		case addr < r.Base:
			hi = mid - 1
		case addr >= r.Limit:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// engineFor returns the domain engine, panicking on unmapped addresses:
// an access outside every protection domain is a kernel bug, and real
// hardware would raise a bus error.
func (e *Engine) engineFor(addr uint64) edu.Engine {
	if i := e.lookup(addr); i >= 0 {
		return e.regions[i].Engine
	}
	panic(fmt.Sprintf("multikey: address %#x outside every protection domain", addr))
}

// switchCost charges the key reload if addr's domain differs from the
// loaded one.
func (e *Engine) switchCost(addr uint64) uint64 {
	i := e.lookup(addr)
	if i < 0 {
		return 0 // engineFor will panic on the data path
	}
	if e.hasActive && e.active == i {
		return 0
	}
	cost := uint64(0)
	if e.hasActive {
		e.Switches++
		cost = switchCycles
	}
	e.active, e.hasActive = i, true
	return cost
}

// Name implements edu.Engine.
func (e *Engine) Name() string { return fmt.Sprintf("multikey[%d domains]", len(e.regions)) } //repro:allow name formatting runs once per report, never per reference

// BlockBytes implements edu.Engine: the coarsest domain granule, so the
// SoC's RMW logic stays conservative.
func (e *Engine) BlockBytes() int {
	max := 1
	for _, r := range e.regions {
		if b := r.Engine.BlockBytes(); b > max {
			max = b
		}
	}
	return max
}

// KeyRAMGatesPerDomain approximates on-chip storage for one retained
// key (key material + schedule slot in the key RAM).
const KeyRAMGatesPerDomain = 2_000

// Gates implements edu.Engine: the largest domain datapath (the cipher
// core is shared) plus the key RAM.
func (e *Engine) Gates() int {
	max := 0
	for _, r := range e.regions {
		if g := r.Engine.Gates(); g > max {
			max = g
		}
	}
	return max + len(e.regions)*KeyRAMGatesPerDomain
}

// EncryptLine implements edu.Engine.
func (e *Engine) EncryptLine(addr uint64, dst, src []byte) {
	e.engineFor(addr).EncryptLine(addr, dst, src)
}

// DecryptLine implements edu.Engine.
func (e *Engine) DecryptLine(addr uint64, dst, src []byte) {
	e.engineFor(addr).DecryptLine(addr, dst, src)
}

// PerAccessCycles implements edu.Engine.
func (e *Engine) PerAccessCycles() uint64 { return 0 }

// ReadExtraCycles implements edu.Engine: domain engine cost plus the key
// reload when the transfer crosses domains.
func (e *Engine) ReadExtraCycles(addr uint64, lineBytes int, transferCycles uint64) uint64 {
	sw := e.switchCost(addr)
	if i := e.lookup(addr); i >= 0 {
		return sw + e.regions[i].Engine.ReadExtraCycles(addr, lineBytes, transferCycles)
	}
	return sw
}

// WriteExtraCycles implements edu.Engine.
func (e *Engine) WriteExtraCycles(addr uint64, lineBytes int) uint64 {
	sw := e.switchCost(addr)
	if i := e.lookup(addr); i >= 0 {
		return sw + e.regions[i].Engine.WriteExtraCycles(addr, lineBytes)
	}
	return sw
}

// NeedsRMW implements edu.Engine: conservative over all domains.
func (e *Engine) NeedsRMW(writeBytes int) bool {
	for _, r := range e.regions {
		if r.Engine.NeedsRMW(writeBytes) {
			return true
		}
	}
	return false
}

// SwitchRate reports switches per call into the timing model — the
// context-switch tax intensity.
func (e *Engine) SwitchRate(transfers uint64) float64 {
	if transfers == 0 {
		return 0
	}
	return float64(e.Switches) / float64(transfers)
}
