package authtree

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/ghash"
	"repro/internal/edu"
	"repro/internal/obs"
)

var testKey = []byte("0123456789abcdef")

func testRegions() []Region {
	return []Region{
		{Base: 0, Bytes: 1 << 20},
		{Base: 0x4000_0000, Bytes: 4 << 20},
	}
}

func mkTree(t *testing.T, variant Variant, nodeCacheBytes int) *Tree {
	t.Helper()
	tr, err := New(Config{
		Key: testKey, LineBytes: 32, Regions: testRegions(),
		NodeCacheBytes: nodeCacheBytes, Variant: variant,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func line(seed byte) []byte {
	b := make([]byte, 32)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Key: []byte("short"), LineBytes: 32, Regions: testRegions()},
		{Key: testKey, LineBytes: 33, Regions: testRegions()},
		{Key: testKey, LineBytes: 32},
		{Key: testKey, LineBytes: 32, Regions: []Region{{Base: 7, Bytes: 1024}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	badFlat := []FlatConfig{
		{Key: testKey, Fresh: true},
		{Key: []byte("tag-key")},
		{HMAC: true},
	}
	for i, cfg := range badFlat {
		if _, err := NewFlat(cfg); err == nil {
			t.Errorf("flat config %d accepted, want error", i)
		}
	}
	// The 16-byte AES key is GMAC's: the HMAC unit takes any length.
	if _, err := NewFlat(FlatConfig{Key: []byte("tag-key"), HMAC: true}); err != nil {
		t.Errorf("HMAC flat rejected a 7-byte key: %v", err)
	}
}

func TestLevelsAndNodeGeometry(t *testing.T) {
	tr := mkTree(t, HashTree, 4<<10)
	// 5 MiB protected at 32 B/line = 160 Ki leaves; arity 8 needs
	// ceil(log8(160Ki)) = 6 interior levels including the root.
	if tr.levels != 6 {
		t.Errorf("levels = %d, want 6", tr.levels)
	}
	if tr.nodeBytes != 16*8 {
		t.Errorf("hash node = %dB, want 128", tr.nodeBytes)
	}
	ct := mkTree(t, CounterTree, 4<<10)
	if ct.nodeBytes != 8*8+8 {
		t.Errorf("counter node = %dB, want 72", ct.nodeBytes)
	}
	if ct.nodeBytes >= tr.nodeBytes {
		t.Error("counter-tree nodes should be smaller than hash-tree nodes")
	}
}

// Legitimate write-then-read must verify, for both variants and both
// flat schemes.
func TestRoundTripVerifies(t *testing.T) {
	for _, v := range allVerifiers(t) {
		ct := line(3)
		v.UpdateWrite(0x40, ct)
		if _, ok := v.VerifyRead(0x40, ct); !ok {
			t.Errorf("%s: legitimate read rejected", v.Name())
		}
		// Rewrite with new content, re-read.
		ct2 := line(9)
		v.UpdateWrite(0x40, ct2)
		if _, ok := v.VerifyRead(0x40, ct2); !ok {
			t.Errorf("%s: read after rewrite rejected", v.Name())
		}
	}
}

func mustFlat(t *testing.T, fresh bool) *Flat {
	t.Helper()
	f, err := NewFlat(FlatConfig{Key: testKey, Fresh: fresh, ProtectedLines: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustHMACFlat(t *testing.T, fresh bool) *Flat {
	t.Helper()
	f, err := NewFlat(FlatConfig{Key: []byte("tag-key"), Fresh: fresh, ProtectedLines: 1 << 16, HMAC: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// allVerifiers returns one fresh instance of every authenticator
// shape: {hash-tree, counter-tree, flat-mac, flat-fresh} under GMAC,
// then flat-mac and flat-fresh under HMAC.
func allVerifiers(t *testing.T) []edu.Verifier {
	return []edu.Verifier{
		mkTree(t, HashTree, 4<<10),
		mkTree(t, CounterTree, 4<<10),
		mustFlat(t, false),
		mustFlat(t, true),
		mustHMACFlat(t, false),
		mustHMACFlat(t, true),
	}
}

// The three attacks at the verifier seam: spoof (content), splice
// (address), replay (freshness).
func TestAttackDetection(t *testing.T) {
	type tamperCase struct {
		name string
		// want[i] is the expectation for allVerifiers()[i].
		want [6]bool
		run  func(v edu.Verifier) bool // returns detected
	}
	genuine := line(1)
	other := line(2)
	cases := []tamperCase{
		{"spoof", [6]bool{true, true, true, true, true, true}, func(v edu.Verifier) bool {
			v.UpdateWrite(0x40, genuine)
			junk := line(0xEE)
			_, ok := v.VerifyRead(0x40, junk)
			return !ok
		}},
		{"splice", [6]bool{true, true, true, true, true, true}, func(v edu.Verifier) bool {
			v.UpdateWrite(0x00, genuine)
			v.UpdateWrite(0x40, other)
			// Relocate ciphertext AND tag from 0x00 to 0x40.
			ts := v.(interface {
				TagAt(uint64) ([ghash.TagBytes]byte, bool)
				TamperTag(uint64, [ghash.TagBytes]byte)
			})
			if tag, had := ts.TagAt(0x00); had {
				ts.TamperTag(0x40, tag)
			}
			_, ok := v.VerifyRead(0x40, genuine) // 0x00's bytes at 0x40
			return !ok
		}},
		{"replay", [6]bool{true, true, false, true, false, true}, func(v edu.Verifier) bool {
			v.UpdateWrite(0x40, genuine)
			ts := v.(interface {
				TagAt(uint64) ([ghash.TagBytes]byte, bool)
				TamperTag(uint64, [ghash.TagBytes]byte)
			})
			staleTag, _ := ts.TagAt(0x40)
			// Legitimate rewrite, then roll back ct + tag.
			v.UpdateWrite(0x40, other)
			ts.TamperTag(0x40, staleTag)
			_, ok := v.VerifyRead(0x40, genuine)
			return !ok
		}},
	}
	for _, tc := range cases {
		for i, v := range allVerifiers(t) {
			if got := tc.run(v); got != tc.want[i] {
				t.Errorf("%s under %s: detected=%v, want %v", tc.name, v.Name(), got, tc.want[i])
			}
		}
	}
}

// Unprotected addresses bypass verification (free, accepted).
func TestUnprotectedBypass(t *testing.T) {
	tr := mkTree(t, HashTree, 4<<10)
	stall, ok := tr.VerifyRead(0x9000_0000, line(5))
	if !ok || stall != 0 {
		t.Fatalf("unprotected read: stall=%d ok=%v, want 0,true", stall, ok)
	}
	if stall := tr.UpdateWrite(0x9000_0000, line(5)); stall != 0 {
		t.Fatalf("unprotected write: stall=%d, want 0", stall)
	}
}

// The node cache is the cost lever: the same access stream must get
// cheaper (higher hit rate, lower cumulative stall) as the cache grows.
func TestNodeCacheLocality(t *testing.T) {
	run := func(nodeCacheBytes int) (stall uint64, hitRate float64) {
		tr := mkTree(t, HashTree, nodeCacheBytes)
		reg := obs.NewRegistry()
		tr.SetMetrics(NewMetrics(reg))
		rng := rand.New(rand.NewSource(7))
		ct := line(1)
		// A looping working set of 512 lines (16 KiB): tree locality a
		// real node cache can exploit.
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(512)) * 32
			if rng.Intn(4) == 0 {
				stall += tr.UpdateWrite(addr, ct)
			} else {
				s, _ := tr.VerifyRead(addr, ct)
				stall += s
			}
		}
		hits, fetches := reg.Counter("authtree.node_hits").Load(), reg.Counter("authtree.node_fetches").Load()
		return stall, float64(hits) / float64(hits+fetches)
	}
	smallStall, smallHit := run(512)
	bigStall, bigHit := run(16 << 10)
	if bigStall >= smallStall {
		t.Errorf("16K node cache stall %d >= 512B stall %d", bigStall, smallStall)
	}
	if bigHit <= smallHit {
		t.Errorf("16K node cache hit rate %.3f <= 512B hit rate %.3f", bigHit, smallHit)
	}
}

// On-chip area: trees are flat in protected size; the flat freshness
// table is linear in it — the motivating contrast.
func TestGatesScaling(t *testing.T) {
	small, err := New(Config{Key: testKey, LineBytes: 32,
		Regions: []Region{{Base: 0, Bytes: 4 << 20}}, NodeCacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(Config{Key: testKey, LineBytes: 32,
		Regions: []Region{{Base: 0, Bytes: 512 << 20}}, NodeCacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if small.Gates() != big.Gates() {
		t.Errorf("tree gates vary with protected size: %d vs %d", small.Gates(), big.Gates())
	}
	if big.levels <= small.levels {
		t.Errorf("levels should grow with protected size: %d vs %d", big.levels, small.levels)
	}

	flatSmall, _ := NewFlat(FlatConfig{Key: testKey, Fresh: true, ProtectedLines: (4 << 20) / 32})
	flatBig, _ := NewFlat(FlatConfig{Key: testKey, Fresh: true, ProtectedLines: (512 << 20) / 32})
	if flatBig.Gates() <= 100*flatSmall.Gates() {
		t.Errorf("flat-fresh gates should scale ~linearly: %d vs %d", flatSmall.Gates(), flatBig.Gates())
	}
	// The accounting rule is shared: counter table = lines * 8 bytes *
	// edu.SRAMGatesPerByte, plus the hash datapath.
	want := edu.GHASHUnitGates + (4<<20)/32*8*edu.SRAMGatesPerByte
	if flatSmall.Gates() != want {
		t.Errorf("flat-fresh gates = %d, want %d (shared SRAM rule)", flatSmall.Gates(), want)
	}
	// The HMAC unit swaps the datapath and keeps the table.
	hmacFresh, _ := NewFlat(FlatConfig{Key: []byte("k"), Fresh: true, ProtectedLines: (4 << 20) / 32, HMAC: true})
	if got := hmacFresh.Gates() - flatSmall.Gates(); got != edu.MACUnitGates-edu.GHASHUnitGates {
		t.Errorf("HMAC flat-fresh gates exceed GMAC's by %d, want %d", got, edu.MACUnitGates-edu.GHASHUnitGates)
	}
}

// The flat authenticators charge the tag unit's 8-cycle tail per line
// under either unit, plus one cycle for the counter-table lookup under
// freshness, on reads and writes alike.
func TestFlatTagCycles(t *testing.T) {
	for _, f := range []*Flat{mustFlat(t, false), mustFlat(t, true), mustHMACFlat(t, false), mustHMACFlat(t, true)} {
		want := uint64(8)
		if f.cfg.Fresh {
			want = 9
		}
		if w := f.UpdateWrite(0x40, line(1)); w != want {
			t.Errorf("%s HMAC=%v: write stall %d, want %d", f.Name(), f.cfg.HMAC, w, want)
		}
		if r, _ := f.VerifyRead(0x40, line(1)); r != want {
			t.Errorf("%s HMAC=%v: read stall %d, want %d", f.Name(), f.cfg.HMAC, r, want)
		}
	}
}

// A line the verifier has never seen enrolls only as unwritten DRAM
// (all zeros). A strike that lands before the line's first fill leaves
// other bytes there and must fail, not be enrolled as genuine; the
// untouched neighbour still enrolls, and a later legitimate write
// brings the struck line under authentication.
func TestStrikeBeforeFirstFill(t *testing.T) {
	for _, v := range allVerifiers(t) {
		if _, ok := v.VerifyRead(0x40, line(0xEE)); ok {
			t.Errorf("%s: never-seen line with attacker bytes enrolled", v.Name())
		}
		if _, ok := v.VerifyRead(0x60, make([]byte, 32)); !ok {
			t.Errorf("%s: never-seen unwritten line rejected", v.Name())
		}
		v.UpdateWrite(0x40, line(3))
		if _, ok := v.VerifyRead(0x40, line(3)); !ok {
			t.Errorf("%s: struck line rejected after a legitimate write", v.Name())
		}
	}
}

// Steady-state verifier operations must not allocate: they sit on the
// SoC's 0 allocs/ref miss path.
func TestVerifierZeroAllocs(t *testing.T) {
	for _, v := range []edu.Verifier{
		mkTree(t, HashTree, 1<<10),
		mkTree(t, CounterTree, 1<<10),
		mustFlat(t, true),
		mustHMACFlat(t, true),
	} {
		ct := line(1)
		// Warm every line's tag entry, then measure.
		for a := uint64(0); a < 256*32; a += 32 {
			v.UpdateWrite(a, ct)
			v.VerifyRead(a, ct)
		}
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			a := uint64(i%256) * 32
			i++
			v.VerifyRead(a, ct)
			v.UpdateWrite(a, ct)
		}); avg != 0 {
			t.Errorf("%s: %.2f allocs per op, want 0", v.Name(), avg)
		}
	}
}
