// Hierarchy composes cache levels into the two-level (or deeper)
// on-chip storage of the AEGIS-class evaluations: level 0 is nearest
// the CPU, misses fall through to the next level, dirty evictions push
// down one level at a time, and only the outermost level talks to
// external memory. The composition is pure cache state — each access
// returns the ordered list of line transfers it caused, and the caller
// (the SoC) turns those into timing, data movement and engine/verifier
// activity at whichever boundary the EDU guards.
package cache

import "fmt"

// EventKind classifies one line transfer between adjacent levels (or
// between the outermost level and external memory).
type EventKind uint8

const (
	// EvFill moves a line inward: level Level receives Addr from level
	// Level+1 (PeerSlot) or from external memory (PeerSlot < 0).
	EvFill EventKind = iota
	// EvWriteback moves a dirty line outward: level Level spills Addr
	// into level Level+1 (PeerSlot) or to external memory (PeerSlot < 0).
	EvWriteback
)

// Event is one line transfer. Events are emitted in the order their
// data must move: a victim's outward spill always precedes the fill or
// install that reuses its slot, so side storage indexed by slot can be
// recycled in lockstep.
type Event struct {
	Kind EventKind
	// Level is the level whose line moves (0 = nearest the CPU).
	Level int
	// Addr is the line-aligned address.
	Addr uint64
	// Slot is the line's storage slot in its level (Result.Slot).
	Slot int
	// PeerSlot is the slot in level Level+1 serving (fill) or receiving
	// (writeback) the line; -1 means external memory — the transfer
	// crosses the chip boundary.
	PeerSlot int
}

// AccessResult summarizes one hierarchy access from the CPU's side.
type AccessResult struct {
	// Hit reports a level-0 hit.
	Hit bool
	// Slot is the line's level-0 slot when a line is involved, -1 on a
	// write-through no-allocate miss.
	Slot int
	// Through reports a store propagated straight out of level 0
	// (write-through policy; only supported in a single-level hierarchy).
	Through bool
}

// Hierarchy is one composed cache stack. It reuses its event buffer:
// the slice returned by Access/Flush is valid until the next call, and
// steady-state accesses allocate nothing.
type Hierarchy struct {
	levels   []*Cache
	events   []Event
	flushBuf []DirtyLine
}

// NewHierarchy composes levels (innermost first). All levels must share
// one line size — a line is the unit moved between levels — and only a
// single-level hierarchy may use a write-through level-0 (propagating
// per-store traffic through a lower level is not modeled).
func NewHierarchy(levels ...*Cache) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	ls := levels[0].cfg.LineSize
	for i, l := range levels[1:] {
		if l.cfg.LineSize != ls {
			return nil, fmt.Errorf("cache: level %d line size %d != level 0 line size %d",
				i+1, l.cfg.LineSize, ls)
		}
		if l.cfg.WriteMode != WriteBack {
			return nil, fmt.Errorf("cache: level %d must be write-back (write-through is a level-0 policy)", i+1)
		}
	}
	if len(levels) > 1 && levels[0].cfg.WriteMode != WriteBack {
		return nil, fmt.Errorf("cache: write-through level 0 above a lower level is not modeled")
	}
	return &Hierarchy{levels: levels}, nil
}

// Access performs one CPU reference against level 0, falling through on
// misses, and returns the transfers it caused. The event slice is owned
// by the hierarchy and valid until the next Access or Flush.
//
//repro:hotpath
func (h *Hierarchy) Access(addr uint64, isStore bool) (AccessResult, []Event) {
	h.events = h.events[:0]
	res := h.levels[0].Access(addr, isStore)
	out := AccessResult{Hit: res.Hit, Slot: res.Slot, Through: res.Through}
	if res.Writeback {
		h.pushDown(0, res.WritebackAddr, res.Slot)
	}
	if res.Fill {
		h.fillFrom(0, res.FillAddr, res.Slot)
	}
	return out, h.events
}

// pushDown emits the transfers for level writing back line addr from
// slot: into the next level's Install (whole-line write, no fill from
// below), or out to external memory at the last level. A dirty victim
// displaced by the install spills onward first.
func (h *Hierarchy) pushDown(level int, addr uint64, slot int) {
	if level == len(h.levels)-1 {
		h.events = append(h.events, Event{Kind: EvWriteback, Level: level, Addr: addr, Slot: slot, PeerSlot: -1})
		return
	}
	peer, victim, hasVictim := h.levels[level+1].Install(addr)
	if hasVictim {
		h.pushDown(level+1, victim.Addr, victim.Slot)
	}
	h.events = append(h.events, Event{Kind: EvWriteback, Level: level, Addr: addr, Slot: slot, PeerSlot: peer})
}

// fillFrom emits the transfers for level filling line addr into slot:
// a lookup in the next level (fill-through on its miss), or a fetch
// from external memory at the last level.
func (h *Hierarchy) fillFrom(level int, addr uint64, slot int) {
	if level == len(h.levels)-1 {
		h.events = append(h.events, Event{Kind: EvFill, Level: level, Addr: addr, Slot: slot, PeerSlot: -1})
		return
	}
	res := h.levels[level+1].Access(addr, false)
	if res.Writeback {
		h.pushDown(level+1, res.WritebackAddr, res.Slot)
	}
	if res.Fill {
		h.fillFrom(level+1, res.FillAddr, res.Slot)
	}
	h.events = append(h.events, Event{Kind: EvFill, Level: level, Addr: addr, Slot: slot, PeerSlot: res.Slot})
}

// Flush drains every dirty line toward memory, innermost level first:
// each level's dirty lines push down through the levels below exactly
// like capacity writebacks, so a level-0 line flushes into level 1 and
// is drained from there to memory in the same pass. The returned events
// are valid until the next Access or Flush.
func (h *Hierarchy) Flush() []Event {
	h.events = h.events[:0]
	for level := range h.levels {
		h.flushBuf = h.levels[level].FlushDirty(h.flushBuf[:0])
		for _, d := range h.flushBuf {
			h.pushDown(level, d.Addr, d.Slot)
		}
	}
	return h.events
}
