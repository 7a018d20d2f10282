// Package cache models the on-chip cache that sits between the CPU core
// and the memory controller in every architecture the survey draws
// (Figures 2c, 7a, 7b). It is a timing/state model, not a data store:
// the simulator tracks which lines are resident and dirty, and the
// engines cost the traffic the cache emits on its external side.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the replacement discipline within a set.
type Policy int

const (
	// LRU replaces the least recently used way.
	LRU Policy = iota
	// FIFO replaces in insertion order.
	FIFO
)

// WriteMode selects the write-hit policy.
type WriteMode int

const (
	// WriteBack marks the line dirty and writes it out on eviction.
	WriteBack WriteMode = iota
	// WriteThrough propagates every store to memory immediately.
	WriteThrough
)

// Config fixes the cache geometry.
type Config struct {
	// Size is total capacity in bytes.
	Size int
	// LineSize is the block size in bytes (the survey's "cache block",
	// the ciphering granule of the AEGIS engine).
	LineSize int
	// Ways is the associativity (1 = direct mapped).
	Ways int
	// Policy is the replacement policy.
	Policy Policy
	// WriteMode is the write-hit policy; write misses allocate in
	// WriteBack mode and bypass in WriteThrough mode.
	WriteMode WriteMode
}

// Validate checks geometry sanity.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.Size%(c.LineSize*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*ways %d", c.Size, c.LineSize*c.Ways)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	sets := c.Size / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	Writebacks   uint64 // dirty evictions
	WriteThrough uint64 // stores propagated in write-through mode
}

// MissRate returns misses / (hits + misses).
func (s Stats) MissRate() float64 {
	d := s.Hits + s.Misses
	if d == 0 {
		return 0
	}
	return float64(s.Misses) / float64(d)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp or FIFO insertion order
}

// Cache is one cache instance.
type Cache struct {
	cfg  Config
	sets [][]line
	// The geometry is powers of two, so an address splits into tag,
	// set and line offset by shifts and a mask: set = (addr>>lineShift)
	// & setMask, tag = addr>>(lineShift+setShift).
	lineShift, setShift uint
	setMask             uint64
	tick                uint64
	stats               Stats
}

// New builds a cache or reports a bad geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setsN := cfg.Size / (cfg.LineSize * cfg.Ways)
	sets := make([][]line, setsN)
	backing := make([]line, setsN*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  uint(bits.TrailingZeros(uint(setsN))),
		setMask:   uint64(setsN - 1),
	}, nil
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the event counters so far.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (state stays warm).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineSize-1)
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineNo := addr >> c.lineShift
	return lineNo & c.setMask, lineNo >> c.setShift
}

// lineAddrOf is index's inverse: the line-aligned address of tag in set.
func (c *Cache) lineAddrOf(set, tag uint64) uint64 {
	return (tag<<c.setShift | set) << c.lineShift
}

// Result describes what one access did on the cache's external side.
type Result struct {
	// Hit reports whether the access hit.
	Hit bool
	// Slot is the line's storage slot (set*ways + way) when the access
	// touched a resident or newly filled line, and -1 when no line was
	// involved (a write-through no-allocate miss). On a fill it names
	// the victim's slot, so callers keeping per-line side state can
	// recycle the victim's storage in lockstep with the eviction —
	// clean or dirty.
	Slot int
	// FillAddr is the line-aligned address fetched from memory on a
	// miss-with-allocate (0 and Fill=false otherwise).
	Fill     bool
	FillAddr uint64
	// WritebackAddr is the line-aligned dirty victim written to memory.
	Writeback     bool
	WritebackAddr uint64
	// Through reports that a store was propagated straight to memory
	// (write-through policy). The store's address and size are those of
	// the reference that caused it; the Result carries no copy.
	Through bool
}

// Access performs one reference. isStore marks data writes. It returns
// the external traffic generated, which the SoC model converts to bus
// and engine activity.
//
//repro:hotpath
func (c *Cache) Access(addr uint64, isStore bool) Result {
	set, tag := c.index(addr)
	ways := c.sets[set]
	c.tick++

	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stats.Hits++
			if c.cfg.Policy == LRU {
				ways[i].used = c.tick
			}
			var res Result
			res.Hit = true
			res.Slot = int(set)*c.cfg.Ways + i
			if isStore {
				switch c.cfg.WriteMode {
				case WriteBack:
					ways[i].dirty = true
				case WriteThrough:
					c.stats.WriteThrough++
					res.Through = true
				}
			}
			return res
		}
	}

	c.stats.Misses++
	var res Result
	res.Slot = -1

	if isStore && c.cfg.WriteMode == WriteThrough {
		// No-allocate on write miss: the store goes straight out.
		c.stats.WriteThrough++
		res.Through = true
		return res
	}

	victim, wbAddr, writeback := c.victimWay(set)
	if writeback {
		res.Writeback = true
		res.WritebackAddr = wbAddr
	}

	ways[victim] = line{tag: tag, valid: true, used: c.tick}
	if isStore && c.cfg.WriteMode == WriteBack {
		ways[victim].dirty = true
	}
	res.Slot = int(set)*c.cfg.Ways + victim
	res.Fill = true
	res.FillAddr = c.LineAddr(addr)
	return res
}

// victimWay chooses the replacement way in set — the first invalid way,
// else the policy minimum — counting the eviction and dirty-writeback
// stats exactly as a demand miss does. It reports the line-aligned
// address of a dirty victim that must spill before the way is reused.
func (c *Cache) victimWay(set uint64) (way int, wbAddr uint64, writeback bool) {
	ways := c.sets[set]
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].used < ways[victim].used {
				victim = i
			}
		}
		c.stats.Evictions++
		if ways[victim].dirty {
			c.stats.Writebacks++
			writeback = true
			wbAddr = c.lineAddrOf(set, ways[victim].tag)
		}
	}
	return victim, wbAddr, writeback
}

// Install allocates addr's line as a whole-line write arriving from the
// level above — an upper level's dirty writeback landing in this one.
// No fill from below is needed (every byte of the line is being
// overwritten), so the line is installed, or updated in place if
// already resident, and marked dirty. It returns the line's storage
// slot and the dirty victim (if any) whose contents must spill onward
// before the slot's side storage is reused. Installs share the
// hit/miss/eviction counters with demand accesses: this level's Stats
// describe all traffic arriving at it, not only CPU-side demand.
//
//repro:hotpath
func (c *Cache) Install(addr uint64) (slot int, victim DirtyLine, hasVictim bool) {
	set, tag := c.index(addr)
	ways := c.sets[set]
	c.tick++

	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stats.Hits++
			if c.cfg.Policy == LRU {
				ways[i].used = c.tick
			}
			ways[i].dirty = true
			return int(set)*c.cfg.Ways + i, DirtyLine{}, false
		}
	}

	c.stats.Misses++
	way, wbAddr, writeback := c.victimWay(set)
	if writeback {
		victim = DirtyLine{Addr: wbAddr, Slot: int(set)*c.cfg.Ways + way}
		hasVictim = true
	}
	ways[way] = line{tag: tag, valid: true, used: c.tick, dirty: true}
	return int(set)*c.cfg.Ways + way, victim, hasVictim
}

// Lines returns the total number of line slots (sets x ways) — the
// bound on any per-resident-line side storage a caller keeps.
func (c *Cache) Lines() int { return len(c.sets) * c.cfg.Ways }

// DirtyLine identifies one dirty resident line: its line-aligned
// address and its storage slot (see Result.Slot).
type DirtyLine struct {
	Addr uint64
	Slot int
}

// FlushDirty appends every dirty line to buf and marks them clean —
// the end-of-run drain that makes writeback traffic fully accounted.
// Passing a reused buf[:0] keeps the call allocation-free.
func (c *Cache) FlushDirty(buf []DirtyLine) []DirtyLine {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && l.dirty {
				buf = append(buf, DirtyLine{
					Addr: c.lineAddrOf(uint64(s), l.tag),
					Slot: s*c.cfg.Ways + w,
				})
				l.dirty = false
			}
		}
	}
	return buf
}

// Contains reports whether addr's line is resident (test helper and
// attack-model primitive: a probe cannot see cache-hit traffic).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}
