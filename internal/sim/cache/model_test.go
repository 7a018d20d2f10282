package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is a deliberately naive model of Cache: plain division and
// modulo for the address split, a linear scan for lookup and victim
// choice, and nothing precomputed. The differential test below runs it
// in lockstep with the real cache.
type refCache struct {
	cfg   Config
	nsets uint64
	lines []line // set-major: set s, way w at s*Ways + w
	tick  uint64
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	return &refCache{cfg: cfg, nsets: uint64(nsets), lines: make([]line, nsets*cfg.Ways)}
}

func (r *refCache) split(addr uint64) (set, tag uint64) {
	lineNo := addr / uint64(r.cfg.LineSize)
	return lineNo % r.nsets, lineNo / r.nsets
}

func (r *refCache) addrOf(set, tag uint64) uint64 {
	return (tag*r.nsets + set) * uint64(r.cfg.LineSize)
}

// lookup returns the slot holding addr's line, or -1.
func (r *refCache) lookup(set, tag uint64) int {
	for w := 0; w < r.cfg.Ways; w++ {
		slot := int(set)*r.cfg.Ways + w
		if r.lines[slot].valid && r.lines[slot].tag == tag {
			return slot
		}
	}
	return -1
}

// victim picks the first invalid way, else the smallest timestamp
// (first on ties), counting the eviction and any dirty writeback.
func (r *refCache) victim(set uint64) (slot int, wb uint64, dirty bool) {
	base := int(set) * r.cfg.Ways
	for w := 0; w < r.cfg.Ways; w++ {
		if !r.lines[base+w].valid {
			return base + w, 0, false
		}
	}
	slot = base
	for w := 1; w < r.cfg.Ways; w++ {
		if r.lines[base+w].used < r.lines[slot].used {
			slot = base + w
		}
	}
	r.stats.Evictions++
	if r.lines[slot].dirty {
		r.stats.Writebacks++
		return slot, r.addrOf(set, r.lines[slot].tag), true
	}
	return slot, 0, false
}

func (r *refCache) access(addr uint64, isStore bool) Result {
	set, tag := r.split(addr)
	r.tick++
	if slot := r.lookup(set, tag); slot >= 0 {
		r.stats.Hits++
		r.lines[slot].used = r.tick
		res := Result{Hit: true, Slot: slot}
		if isStore && r.cfg.WriteMode == WriteBack {
			r.lines[slot].dirty = true
		}
		if isStore && r.cfg.WriteMode == WriteThrough {
			r.stats.WriteThrough++
			res.Through = true
		}
		return res
	}
	r.stats.Misses++
	if isStore && r.cfg.WriteMode == WriteThrough {
		r.stats.WriteThrough++
		return Result{Slot: -1, Through: true}
	}
	slot, wb, dirty := r.victim(set)
	r.lines[slot] = line{tag: tag, valid: true, used: r.tick, dirty: isStore}
	return Result{
		Slot: slot, Fill: true, FillAddr: addr / uint64(r.cfg.LineSize) * uint64(r.cfg.LineSize),
		Writeback: dirty, WritebackAddr: wb,
	}
}

func (r *refCache) install(addr uint64) (int, DirtyLine, bool) {
	set, tag := r.split(addr)
	r.tick++
	if slot := r.lookup(set, tag); slot >= 0 {
		r.stats.Hits++
		r.lines[slot].used = r.tick
		r.lines[slot].dirty = true
		return slot, DirtyLine{}, false
	}
	r.stats.Misses++
	slot, wb, dirty := r.victim(set)
	r.lines[slot] = line{tag: tag, valid: true, used: r.tick, dirty: true}
	if dirty {
		return slot, DirtyLine{Addr: wb, Slot: slot}, true
	}
	return slot, DirtyLine{}, false
}

func (r *refCache) flushDirty() []DirtyLine {
	var out []DirtyLine
	for slot := range r.lines {
		if l := &r.lines[slot]; l.valid && l.dirty {
			set := uint64(slot / r.cfg.Ways)
			out = append(out, DirtyLine{Addr: r.addrOf(set, l.tag), Slot: slot})
			l.dirty = false
		}
	}
	return out
}

// modelGeometries lists every valid geometry with 1-16 ways (so
// direct-mapped and non-power-of-two associativity), 16-128 byte lines
// and 1-64 sets (so a single fully-associative set), under both write
// modes.
func modelGeometries() []Config {
	var out []Config
	for ways := 1; ways <= 16; ways++ {
		for ls := 16; ls <= 128; ls *= 2 {
			for sets := 1; sets <= 64; sets *= 2 {
				for _, wm := range []WriteMode{WriteBack, WriteThrough} {
					out = append(out, Config{Size: sets * ls * ways, LineSize: ls, Ways: ways, WriteMode: wm})
				}
			}
		}
	}
	return out
}

// TestCacheMatchesReferenceModel runs randomized Access/Install/
// FlushDirty sequences on every geometry against the naive model: every
// Result, every install outcome, every flushed line, residency and the
// Stats must match step for step.
func TestCacheMatchesReferenceModel(t *testing.T) {
	geoms := modelGeometries()
	ops := 400
	if testing.Short() {
		ops = 100
	}
	for gi, cfg := range geoms {
		c := mustCache(t, cfg)
		ref := newRefCache(cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("geometry %+v invalid: %v", cfg, err)
		}
		if c.Lines() != len(ref.lines) {
			t.Fatalf("%+v: Lines() = %d, want %d", cfg, c.Lines(), len(ref.lines))
		}
		rng := rand.New(rand.NewSource(int64(gi) + 1))
		// Addresses span four times the capacity, so sets conflict and
		// evict; one in eight carries high tag bits.
		span := uint64(4 * cfg.Size)
		var buf []DirtyLine
		for i := 0; i < ops; i++ {
			addr := uint64(rng.Int63n(int64(span)))
			if rng.Intn(8) == 0 {
				addr |= uint64(rng.Intn(1<<20)) << 40
			}
			step := fmt.Sprintf("%+v op %d addr %#x", cfg, i, addr)
			switch op := rng.Intn(20); {
			case op < 14:
				isStore := op%2 == 0
				got, want := c.Access(addr, isStore), ref.access(addr, isStore)
				if got != want {
					t.Fatalf("%s: Access(store=%v) = %+v, model %+v", step, isStore, got, want)
				}
			case op < 19:
				gs, gv, gok := c.Install(addr)
				ws, wv, wok := ref.install(addr)
				if gs != ws || gv != wv || gok != wok {
					t.Fatalf("%s: Install = (%d, %+v, %v), model (%d, %+v, %v)", step, gs, gv, gok, ws, wv, wok)
				}
			default:
				buf = c.FlushDirty(buf[:0])
				if want := ref.flushDirty(); !slices.Equal(buf, want) {
					t.Fatalf("%s: FlushDirty = %+v, model %+v", step, buf, want)
				}
			}
			if got, want := c.Contains(addr), ref.lookup(ref.split(addr)) >= 0; got != want {
				t.Fatalf("%s: Contains = %v, model %v", step, got, want)
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%s: Stats = %+v, model %+v", step, c.Stats(), ref.stats)
			}
		}
		buf = c.FlushDirty(buf[:0])
		if want := ref.flushDirty(); !slices.Equal(buf, want) {
			t.Fatalf("%+v: final FlushDirty = %+v, model %+v", cfg, buf, want)
		}
	}
}
