package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCache(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small() Config {
	return Config{Size: 1024, LineSize: 32, Ways: 2, WriteMode: WriteBack}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{},
		{Size: 1024, LineSize: 0, Ways: 1},
		{Size: 1000, LineSize: 32, Ways: 2},       // not divisible
		{Size: 1024, LineSize: 24, Ways: 2},       // line not pow2
		{Size: 32 * 3 * 2, LineSize: 32, Ways: 2}, // sets = 3
		{Size: -4, LineSize: 32, Ways: 1},         // negative
		{Size: 1024, LineSize: 32, Ways: -1},      // negative ways
		{Size: 1024, LineSize: 2048, Ways: 1},     // size < line*ways
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config %+v accepted", i, cfg)
		}
	}
	if _, err := New(small()); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, small())
	r := c.Access(0x100, false)
	if r.Hit || !r.Fill || r.FillAddr != 0x100 {
		t.Errorf("cold access: %+v", r)
	}
	r = c.Access(0x104, false) // same line
	if !r.Hit {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestLineAddr(t *testing.T) {
	c := mustCache(t, small())
	if c.LineAddr(0x10f) != 0x100 {
		t.Errorf("LineAddr(0x10f) = %#x", c.LineAddr(0x10f))
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way: fill both ways of set 0, touch the first, add a third; the
	// second (LRU) must be evicted.
	cfg := small() // 16 sets, line 32: set = (addr/32) % 16
	c := mustCache(t, cfg)
	setStride := uint64(32 * 16) // addresses mapping to the same set
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b
	if !c.Contains(a) {
		t.Error("MRU line evicted under LRU")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
	if !c.Contains(d) {
		t.Error("new line not resident")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := mustCache(t, small())
	setStride := uint64(32 * 16)
	c.Access(0, true) // dirty line at 0
	c.Access(setStride, false)
	r := c.Access(2*setStride, false) // evicts line 0 (dirty, LRU)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Errorf("dirty eviction not reported: %+v", r)
	}
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d", s.Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := mustCache(t, small())
	setStride := uint64(32 * 16)
	c.Access(0, false)
	c.Access(setStride, false)
	r := c.Access(2*setStride, false)
	if r.Writeback {
		t.Error("clean eviction reported a writeback")
	}
}

func TestWriteThroughHitAndMiss(t *testing.T) {
	cfg := small()
	cfg.WriteMode = WriteThrough
	c := mustCache(t, cfg)

	// Write miss: no-allocate, goes through.
	r := c.Access(0x200, true)
	if r.Fill || !r.Through {
		t.Errorf("WT write miss: %+v", r)
	}
	if c.Contains(0x200) {
		t.Error("WT write miss allocated")
	}

	// Read miss allocates, then a write hit also goes through.
	c.Access(0x200, false)
	r = c.Access(0x200, true)
	if !r.Hit || !r.Through {
		t.Errorf("WT write hit: %+v", r)
	}
	if c.Stats().WriteThrough != 2 {
		t.Errorf("write-through count = %d", c.Stats().WriteThrough)
	}
}

func TestWriteBackNoThroughTraffic(t *testing.T) {
	c := mustCache(t, small())
	c.Access(0, false)
	r := c.Access(0, true)
	if r.Through {
		t.Error("write-back cache emitted through traffic")
	}
}

func TestFlushDirty(t *testing.T) {
	c := mustCache(t, small())
	// Distinct sets (set stride is 32 bytes here) so nothing is evicted.
	c.Access(0x000, true)
	c.Access(0x020, true)
	c.Access(0x040, false)
	dirty := c.FlushDirty(nil)
	if len(dirty) != 2 {
		t.Fatalf("FlushDirty returned %d lines, want 2", len(dirty))
	}
	seen := map[uint64]bool{}
	for _, d := range dirty {
		seen[d.Addr] = true
		if d.Slot < 0 || d.Slot >= c.Lines() {
			t.Errorf("flush slot %d out of range [0,%d)", d.Slot, c.Lines())
		}
	}
	if !seen[0x000] || !seen[0x020] {
		t.Errorf("FlushDirty addresses wrong: %v", dirty)
	}
	if len(c.FlushDirty(dirty[:0])) != 0 {
		t.Error("second flush found dirty lines")
	}
}

// Slots must name the victim's storage on fills (clean or dirty), stay
// stable across hits, and be -1 only for write-through bypass misses.
func TestSlotTracking(t *testing.T) {
	c := mustCache(t, small())
	setStride := uint64(32 * 16)
	r0 := c.Access(0, false)
	if !r0.Fill || r0.Slot < 0 {
		t.Fatalf("cold fill got %+v", r0)
	}
	if rh := c.Access(4, false); !rh.Hit || rh.Slot != r0.Slot {
		t.Errorf("hit slot %d != fill slot %d", rh.Slot, r0.Slot)
	}
	r1 := c.Access(setStride, false)
	if r1.Slot == r0.Slot {
		t.Error("second way reused the first way's slot")
	}
	// Third line in the same set evicts LRU (line 0): the fill must
	// report that victim's slot even though the eviction is clean.
	r2 := c.Access(2*setStride, false)
	if r2.Writeback || !r2.Fill || r2.Slot != r0.Slot {
		t.Errorf("clean eviction fill got %+v, want victim slot %d", r2, r0.Slot)
	}

	wt := small()
	wt.WriteMode = WriteThrough
	cw := mustCache(t, wt)
	if r := cw.Access(0x200, true); r.Slot != -1 {
		t.Errorf("write-through bypass miss got slot %d, want -1", r.Slot)
	}
}

func TestMissRateStats(t *testing.T) {
	c := mustCache(t, small())
	for i := 0; i < 10; i++ {
		c.Access(0, false)
	}
	s := c.Stats()
	if got := s.MissRate(); got != 0.1 {
		t.Errorf("miss rate = %v, want 0.1", got)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
}

// Property: the reported fill address is always the accessed line, and a
// filled line is immediately resident.
func TestFillInvariant(t *testing.T) {
	c := mustCache(t, Config{Size: 4096, LineSize: 64, Ways: 4, WriteMode: WriteBack})
	f := func(addr uint64) bool {
		addr %= 1 << 30
		r := c.Access(addr, false)
		if r.Fill && r.FillAddr != addr&^63 {
			return false
		}
		return c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: working set smaller than capacity eventually stops missing.
func TestSmallWorkingSetConverges(t *testing.T) {
	c := mustCache(t, small()) // 1 KiB
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 16) // 16 lines = 512 B working set
	for i := range addrs {
		addrs[i] = uint64(i) * 32
	}
	for i := 0; i < 1000; i++ {
		c.Access(addrs[rng.Intn(len(addrs))], false)
	}
	warm := c.Stats()
	for i := 0; i < 1000; i++ {
		c.Access(addrs[rng.Intn(len(addrs))], false)
	}
	if misses := c.Stats().Misses - warm.Misses; misses != 0 {
		t.Errorf("warm small working set still missing: %d misses in 1000 accesses", misses)
	}
}

// Property: direct-mapped cache with a power-of-two stride equal to the
// set span thrashes 100 %.
func TestConflictThrashing(t *testing.T) {
	c := mustCache(t, Config{Size: 1024, LineSize: 32, Ways: 1, WriteMode: WriteBack})
	span := uint64(1024)
	for i := 0; i < 100; i++ {
		c.Access(0, false)
		c.Access(span, false)
	}
	if mr := c.Stats().MissRate(); mr != 1 {
		t.Errorf("conflict pair should thrash a direct-mapped cache, miss rate %v", mr)
	}
}
