package cache

import (
	"math/rand"
	"testing"
)

func l1Config() Config {
	return Config{Size: 1 << 10, LineSize: 32, Ways: 2, WriteMode: WriteBack}
}

func l2Config() Config {
	return Config{Size: 4 << 10, LineSize: 32, Ways: 4, WriteMode: WriteBack}
}

func TestInstall(t *testing.T) {
	c := mustCache(t, Config{Size: 64, LineSize: 32, Ways: 1, WriteMode: WriteBack})

	// Install into an empty set: no victim, line resident and dirty.
	slot, _, hasVictim := c.Install(0x0)
	if hasVictim {
		t.Error("install into empty set produced a victim")
	}
	if !c.Contains(0x0) {
		t.Error("installed line not resident")
	}
	buf := c.FlushDirty(nil)
	if len(buf) != 1 || buf[0].Addr != 0x0 || buf[0].Slot != slot {
		t.Errorf("installed line not dirty: flush = %+v", buf)
	}

	// Re-install the (now clean) line: updated in place, dirty again.
	slot2, _, hasVictim := c.Install(0x0)
	if hasVictim || slot2 != slot {
		t.Errorf("re-install moved the line: slot %d -> %d (victim %v)", slot, slot2, hasVictim)
	}
	if got := c.FlushDirty(nil); len(got) != 1 {
		t.Errorf("re-install did not re-dirty: flush = %+v", got)
	}

	// A conflicting install evicts; the displaced dirty line comes back
	// as the victim with its slot (64B direct-mapped = 2 sets of one
	// 32B line: 0x0 and 0x40 both map to set 0).
	c.Install(0x0) // dirty again
	s3, victim, has := c.Install(0x40)
	if !has {
		t.Fatal("conflicting install produced no victim")
	}
	if victim.Addr != 0x0 || victim.Slot != s3 {
		t.Errorf("victim = %+v, want addr 0x0 in slot %d", victim, s3)
	}
	if c.Contains(0x0) || !c.Contains(0x40) {
		t.Error("install did not replace the victim line")
	}
}

// A single-level hierarchy must be event-for-event equivalent to using
// the cache directly: same hits, same fills, same writebacks, in the
// same order — the property the SoC's pre-hierarchy byte-identical
// reports rest on.
func TestHierarchySingleLevelEquivalence(t *testing.T) {
	direct := mustCache(t, l1Config())
	inHier := mustCache(t, l1Config())
	h, err := NewHierarchy(inHier)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<14)) &^ 3
		isStore := rng.Intn(4) == 0
		want := direct.Access(addr, isStore)
		res, events := h.Access(addr, isStore)
		if res.Hit != want.Hit || res.Slot != want.Slot || res.Through != want.Through {
			t.Fatalf("ref %d: result %+v, want hit=%v slot=%d", i, res, want.Hit, want.Slot)
		}
		var gotWB, gotFill bool
		for _, ev := range events {
			if ev.Level != 0 || ev.PeerSlot != -1 {
				t.Fatalf("ref %d: single-level event touches level %d peer %d", i, ev.Level, ev.PeerSlot)
			}
			switch ev.Kind {
			case EvWriteback:
				gotWB = true
				if ev.Addr != want.WritebackAddr {
					t.Fatalf("ref %d: writeback addr %#x, want %#x", i, ev.Addr, want.WritebackAddr)
				}
			case EvFill:
				gotFill = true
				if ev.Addr != want.FillAddr || ev.Slot != want.Slot {
					t.Fatalf("ref %d: fill %#x slot %d, want %#x slot %d", i, ev.Addr, ev.Slot, want.FillAddr, want.Slot)
				}
			}
		}
		if gotWB != want.Writeback || gotFill != want.Fill {
			t.Fatalf("ref %d: events wb=%v fill=%v, want wb=%v fill=%v", i, gotWB, gotFill, want.Writeback, want.Fill)
		}
	}
	if direct.Stats() != inHier.Stats() {
		t.Errorf("stats diverged: direct %+v hier %+v", direct.Stats(), inHier.Stats())
	}
}

// Two-level invariants over a random workload: every L1 miss consults
// the L2, L1 victim writebacks install in the L2, a victim's outward
// spill always precedes the event that reuses its slot, and Flush
// leaves no dirty line anywhere.
func TestHierarchyTwoLevel(t *testing.T) {
	h, err := NewHierarchy(mustCache(t, l1Config()), mustCache(t, l2Config()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(64<<10)) &^ 3
		res, events := h.Access(addr, rng.Intn(3) == 0)
		for _, ev := range events {
			switch {
			case ev.Kind == EvWriteback && ev.Level == 0:
				if !h.levels[1].Contains(ev.Addr) {
					t.Fatalf("ref %d: L1 writeback of %#x did not install in L2", i, ev.Addr)
				}
			case ev.Kind == EvFill && ev.Level == 0:
				if ev.PeerSlot < 0 {
					t.Fatalf("ref %d: L1 fill bypassed the L2", i)
				}
				if !h.levels[1].Contains(ev.Addr) {
					t.Fatalf("ref %d: L1 filled %#x but L2 does not hold it", i, ev.Addr)
				}
			}
		}
		if !res.Hit && !h.levels[0].Contains(addr) {
			t.Fatalf("ref %d: miss did not allocate %#x in L1", i, addr)
		}
	}
	// Flush: afterwards both levels are clean.
	events := h.Flush()
	for _, ev := range events {
		if ev.Kind != EvWriteback {
			t.Errorf("flush emitted a fill event: %+v", ev)
		}
	}
	if got := h.levels[0].FlushDirty(nil); len(got) != 0 {
		t.Errorf("L1 still dirty after Flush: %d lines", len(got))
	}
	if got := h.levels[1].FlushDirty(nil); len(got) != 0 {
		t.Errorf("L2 still dirty after Flush: %d lines", len(got))
	}
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(); err == nil {
		t.Error("empty hierarchy accepted")
	}
	bad := l2Config()
	bad.LineSize = 64
	if _, err := NewHierarchy(mustCache(t, l1Config()), mustCache(t, bad)); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	wt := l1Config()
	wt.WriteMode = WriteThrough
	if _, err := NewHierarchy(mustCache(t, wt), mustCache(t, l2Config())); err == nil {
		t.Error("write-through L1 above an L2 accepted")
	}
	wt2 := l2Config()
	wt2.WriteMode = WriteThrough
	if _, err := NewHierarchy(mustCache(t, l1Config()), mustCache(t, wt2)); err == nil {
		t.Error("write-through L2 accepted")
	}
	// Write-through is fine for a single level.
	if _, err := NewHierarchy(mustCache(t, wt)); err != nil {
		t.Errorf("single-level write-through rejected: %v", err)
	}
}
