package soc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/edu"
	"repro/internal/edu/products"
	"repro/internal/obs"
	"repro/internal/sim/authtree"
	"repro/internal/sim/bus"
	"repro/internal/sim/cache"
	"repro/internal/sim/trace"
)

// fixedEngine is a test engine with controllable costs and an XOR data
// transform so ciphertext is distinguishable from plaintext.
type fixedEngine struct {
	block     int
	readCost  uint64
	writeCost uint64
	perAccess uint64
}

func (f fixedEngine) Name() string    { return "fixed" }
func (f fixedEngine) BlockBytes() int { return f.block }
func (f fixedEngine) Gates() int      { return 1000 }
func (f fixedEngine) EncryptLine(_ uint64, dst, src []byte) {
	for i := range src {
		dst[i] = src[i] ^ 0x5c
	}
}
func (f fixedEngine) DecryptLine(_ uint64, dst, src []byte) {
	for i := range src {
		dst[i] = src[i] ^ 0x5c
	}
}
func (f fixedEngine) PerAccessCycles() uint64                    { return f.perAccess }
func (f fixedEngine) ReadExtraCycles(uint64, int, uint64) uint64 { return f.readCost }
func (f fixedEngine) WriteExtraCycles(uint64, int) uint64        { return f.writeCost }
func (f fixedEngine) NeedsRMW(n int) bool                        { return n < f.block }

func smallTrace() *trace.Trace {
	return trace.Drain(trace.SequentialSource(trace.Config{Refs: 5000, Seed: 1, LoadFraction: 0.4, WriteFraction: 0.3, JumpRate: 0.02, Locality: 0.6}))
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache.Size = 100 // invalid geometry
	if _, err := New(cfg); err == nil {
		t.Error("bad cache accepted")
	}
	cfg = DefaultConfig()
	cfg.Engine = fixedEngine{block: 48} // line 32 not divisible by 48
	if _, err := New(cfg); err == nil {
		t.Error("granule larger than line accepted")
	}
}

func TestBaselineRunBasics(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := smallTrace()
	rep := s.Run(tr)
	var fetches uint64
	for _, r := range tr.Refs {
		if r.Kind == trace.Fetch {
			fetches++
		}
	}
	if rep.Instructions != fetches {
		t.Errorf("instructions = %d, want %d", rep.Instructions, fetches)
	}
	if rep.Refs != uint64(len(tr.Refs)) {
		t.Errorf("refs = %d, want %d", rep.Refs, len(tr.Refs))
	}
	if rep.Cycles == 0 || rep.CPI() <= 1 {
		t.Errorf("implausible cycle count %d (CPI %.2f)", rep.Cycles, rep.CPI())
	}
	if rep.EngineStalls != 0 {
		t.Error("null engine reported stalls")
	}
}

func TestEngineAddsOverhead(t *testing.T) {
	cfg := DefaultConfig()
	eng := fixedEngine{block: 16, readCost: 20, writeCost: 10}
	base, with, err := Baselines{}.Compare(cfg, eng, smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if with.Cycles <= base.Cycles {
		t.Errorf("engine did not slow the system: base %d with %d", base.Cycles, with.Cycles)
	}
	if with.OverheadVs(base) <= 0 {
		t.Error("overhead not positive")
	}
	if with.EngineStalls == 0 {
		t.Error("engine stalls not accounted")
	}
	// Identical cache behaviour: the engine must not perturb hits/misses.
	if with.Cache.Misses != base.Cache.Misses {
		t.Errorf("engine changed miss count: %d vs %d", with.Cache.Misses, base.Cache.Misses)
	}
}

func TestZeroCostEngineZeroOverhead(t *testing.T) {
	base, with, err := Baselines{}.Compare(DefaultConfig(), fixedEngine{block: 1}, smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != with.Cycles {
		t.Errorf("zero-cost engine changed cycles: %d vs %d", base.Cycles, with.Cycles)
	}
}

func TestPerAccessCyclesCharged(t *testing.T) {
	cfg := DefaultConfig()
	base, with, err := Baselines{}.Compare(cfg, fixedEngine{block: 1, perAccess: 1}, smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Every reference pays exactly 1 extra cycle.
	want := base.Cycles + with.Refs
	if with.Cycles != want {
		t.Errorf("per-access accounting: got %d, want %d", with.Cycles, want)
	}
}

// TestBaselinesMatchFresh: a shared baseline is exactly the run it
// stands for. Over both geometries and every engine, verifier,
// placement and intruder, Compare's base equals a fresh run of
// cfg.Baseline() and its with a fresh run of cfg, on the whole Report;
// and one baseline is simulated per (geometry, source) pair, where two
// sources that share a label but not a seed are two pairs.
func TestBaselinesMatchFresh(t *testing.T) {
	source := func(seed int64) trace.RefSource {
		return trace.SequentialSource(trace.Config{
			Refs: 2000, Seed: seed, LoadFraction: 0.4, WriteFraction: 0.4, JumpRate: 0.03, Locality: 0.5,
			CodeBase: 0, CodeSize: crossingCode, DataBase: crossingBase, DataSize: 32 << 10,
		})
	}
	srcs := []trace.RefSource{source(1), source(2)}
	if srcs[0].Label() != srcs[1].Label() {
		t.Fatalf("labels %q and %q differ", srcs[0].Label(), srcs[1].Label())
	}
	engines := []struct {
		name string
		mk   func() (edu.Engine, error)
	}{
		{"null", func() (edu.Engine, error) { return edu.Null{}, nil }},
		{"fixed", func() (edu.Engine, error) { return fixedEngine{block: 16, readCost: 7, writeCost: 3}, nil }},
		{"aes", func() (edu.Engine, error) { return products.AEGIS([]byte("0123456789abcdef"), 0xb5) }},
	}
	verifiers := []struct {
		name string
		mk   func() (edu.Verifier, error)
	}{
		{"none", func() (edu.Verifier, error) { return nil, nil }},
		{"flat", func() (edu.Verifier, error) {
			return authtree.NewFlat(authtree.FlatConfig{Key: []byte("0123456789abcdef")})
		}},
		{"tree", func() (edu.Verifier, error) {
			return authtree.New(authtree.Config{
				Key: []byte("0123456789abcdef"), LineBytes: 32, NodeCacheBytes: 4 << 10,
				Regions: []authtree.Region{{Base: 0, Bytes: 1 << 20}, {Base: crossingBase, Bytes: 1 << 20}},
			})
		}},
	}
	run := func(cfg Config, src trace.RefSource) Report {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(src)
	}

	b := Baselines{}
	var struck uint64 // violations the intruders caused: the axis is live
	for _, l2 := range []bool{false, true} {
		for _, placement := range []edu.Placement{edu.PlacementNone, edu.PlacementCPUCache} {
			for _, e := range engines {
				for _, v := range verifiers {
					for _, intrude := range []bool{false, true} {
						// Engines, verifiers and intruders are stateful:
						// every run gets its own.
						mk := func() Config {
							cfg := DefaultConfig()
							if l2 {
								cfg.L2 = l2Config(64 << 10)
							}
							cfg.Placement = placement
							var err error
							if cfg.Engine, err = e.mk(); err != nil {
								t.Fatal(err)
							}
							if cfg.Verifier, err = v.mk(); err != nil {
								t.Fatal(err)
							}
							if intrude {
								cfg.Intruder = &corruptor{at: 500}
							}
							return cfg
						}
						for i, src := range srcs {
							name := fmt.Sprintf("l2=%v/%v/%s/%s/intruder=%v/src%d", l2, placement, e.name, v.name, intrude, i)
							cfg := mk()
							base, with, err := b.Compare(cfg, cfg.Engine, src)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							fresh := mk()
							if want := run(fresh.Baseline(), src); base != want {
								t.Errorf("%s: shared baseline differs from a fresh one:\n got  %+v\n want %+v", name, base, want)
							}
							if want := run(fresh, src); with != want {
								t.Errorf("%s: engine run differs from a fresh one:\n got  %+v\n want %+v", name, with, want)
							}
							if intrude {
								struck += with.AuthViolations
							}
						}
					}
				}
			}
		}
	}
	if struck == 0 {
		t.Error("no intruder's tamper was detected; the intruder axis is not exercised")
	}
	if want := 2 * len(srcs); len(b) != want {
		t.Errorf("%d baselines simulated, want %d (geometries x sources)", len(b), want)
	}
}

func TestWriteThroughRMWCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache.WriteMode = cache.WriteThrough
	cfg.Engine = fixedEngine{block: 16, readCost: 5, writeCost: 5}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Byte stores (size 1 < block 16) must trigger RMW.
	tr := &trace.Trace{Name: "stores", Refs: []trace.Ref{
		{Kind: trace.Store, Addr: 0x4000_0001, Size: 1},
		{Kind: trace.Store, Addr: 0x4000_0002, Size: 1},
	}}
	rep := s.Run(tr)
	if rep.RMWEvents != 2 {
		t.Errorf("RMW events = %d, want 2", rep.RMWEvents)
	}
}

func TestLoadImageReadPlainRoundtrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = fixedEngine{block: 16}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := []byte("this program text will live enciphered in external memory....")
	if err := s.LoadImage(0x1000, img); err != nil {
		t.Fatal(err)
	}
	// External memory must hold ciphertext...
	raw := s.DRAM().Dump(0x1000, len(img))
	if bytes.Contains(raw, img[:16]) {
		t.Error("plaintext visible in DRAM")
	}
	// ...but the CPU-side view is plaintext.
	got := s.ReadPlain(0x1000, len(img))
	if !bytes.Equal(got, img) {
		t.Errorf("ReadPlain mismatch: %q", got)
	}
}

// LoadImage and ReadPlain work through the SoC's line scratch: a
// reinstall over written lines allocates nothing, ReadPlain only its
// output, and a short last line is installed zero-padded.
func TestLoadImageReadPlainAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = fixedEngine{block: 16}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls := cfg.Cache.LineSize
	img := bytes.Repeat([]byte{0xff}, 4*ls)
	if err := s.LoadImage(0x1000, img); err != nil {
		t.Fatal(err)
	}
	if n := allocsPerRun(20, func() { _ = s.LoadImage(0x1000, img) }); n != 0 {
		t.Errorf("LoadImage over written lines: %v allocs, want 0", n)
	}
	if n := allocsPerRun(20, func() { _ = s.ReadPlain(0x1000, len(img)) }); n != 1 {
		t.Errorf("ReadPlain: %v allocs, want 1 (its output)", n)
	}
	if err := s.LoadImage(0x1000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("x"), make([]byte, ls-1)...)
	if got := s.ReadPlain(0x1000, ls); !bytes.Equal(got, want) {
		t.Errorf("short last line installed as %x, want %x", got, want)
	}
}

func TestLoadImageAlignment(t *testing.T) {
	s, _ := New(DefaultConfig())
	if err := s.LoadImage(0x1001, []byte("x")); err == nil {
		t.Error("unaligned image base accepted")
	}
}

// The probe on an encrypted system must never see installed plaintext;
// on a plaintext system it must.
type sniffer struct{ data []byte }

func (s *sniffer) Observe(b bus.Beat) { s.data = append(s.data, b.Data...) }

func TestProbeSeesCiphertextOnlyWithEngine(t *testing.T) {
	secret := bytes.Repeat([]byte("SECRET-INSTRUCTION-STREAM!"), 4)
	tr := &trace.Trace{Name: "touch", Refs: []trace.Ref{
		{Kind: trace.Fetch, Addr: 0x1000, Size: 4},
		{Kind: trace.Fetch, Addr: 0x1020, Size: 4},
		{Kind: trace.Fetch, Addr: 0x1040, Size: 4},
	}}

	run := func(eng edu.Engine) *sniffer {
		cfg := DefaultConfig()
		cfg.Engine = eng
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadImage(0x1000, secret); err != nil {
			t.Fatal(err)
		}
		sn := &sniffer{}
		s.Bus().Attach(sn)
		s.Run(tr)
		return sn
	}

	plain := run(edu.Null{})
	if !bytes.Contains(plain.data, secret[:16]) {
		t.Error("plaintext system: probe should capture the secret")
	}
	enc := run(fixedEngine{block: 16})
	if bytes.Contains(enc.data, secret[:16]) {
		t.Error("encrypted system: probe captured plaintext")
	}
}

// shadowBytes is the total size of the resident-line data store.
func shadowBytes(s *SoC) int {
	n := 0
	for _, sh := range s.shadows {
		n += len(sh)
	}
	return n
}

// The shadow store must be bounded by cache geometry, not by how many
// distinct lines the workload touches — the regression guard for the
// old map that grew on every clean eviction.
func TestShadowBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = fixedEngine{block: 16}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := shadowBytes(s); got != cfg.Cache.Size {
		t.Fatalf("shadow = %d bytes, want cache size %d", got, cfg.Cache.Size)
	}
	// A scan over 64x the cache capacity forces continuous clean
	// evictions; the shadow must not grow.
	src := trace.StreamingSource(trace.Config{
		Refs: 200000, Seed: 9, DataSize: uint64(64 * cfg.Cache.Size),
	})
	s.Run(src)
	if got := shadowBytes(s); got != cfg.Cache.Size {
		t.Errorf("shadow grew to %d bytes after run, want %d", got, cfg.Cache.Size)
	}
}

// The per-reference hot path must not allocate: fills, spills and
// write-throughs reuse preallocated line buffers and the slot arena,
// and streaming sources generate references without materializing.
func TestHotLoopZeroAllocs(t *testing.T) {
	systems := []struct {
		name string
		mut  func(*Config)
	}{
		{"null-writeback", func(c *Config) {}},
		{"engine-writeback", func(c *Config) { c.Engine = fixedEngine{block: 16, readCost: 7, writeCost: 3} }},
		{"engine-writethrough", func(c *Config) {
			c.Engine = fixedEngine{block: 16, readCost: 7, writeCost: 3}
			c.Cache.WriteMode = cache.WriteThrough
		}},
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			cfg := DefaultConfig()
			sys.mut(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := trace.SequentialSource(trace.Config{
				Refs: 20000, Seed: 3, LoadFraction: 0.4, WriteFraction: 0.4,
				JumpRate: 0.02, Locality: 0.5,
			})
			s.Run(src) // warm DRAM pages and internal state
			if avg := allocsPerRun(3, func() { s.Run(src) }); avg != 0 {
				t.Errorf("Run allocated %.1f times per 20k-ref run, want 0", avg)
			}
		})
	}
}

// End-of-run flush: dirty lines left in the cache must be spilled and
// their traffic accounted. Three stores and three loads to the same
// lines miss alike; only the stores leave dirt for the flush.
func TestFinalFlushAccounted(t *testing.T) {
	run := func(kind trace.Kind) Report {
		cfg := DefaultConfig()
		cfg.Engine = fixedEngine{block: 16, writeCost: 5}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Distinct lines, nothing evicted: all dirt survives to the end
		// of the run.
		tr := &trace.Trace{Name: "dirty", Refs: []trace.Ref{
			{Kind: kind, Addr: 0x4000_0000, Size: 4},
			{Kind: kind, Addr: 0x4000_0020, Size: 4},
			{Kind: kind, Addr: 0x4000_0040, Size: 4},
		}}
		return s.Run(tr)
	}
	stored := run(trace.Store)
	loaded := run(trace.Load)
	if stored.FlushedLines != 3 || loaded.FlushedLines != 0 {
		t.Errorf("flushed %d lines after stores and %d after loads, want 3 and 0",
			stored.FlushedLines, loaded.FlushedLines)
	}
	if stored.Cycles <= loaded.Cycles {
		t.Errorf("flush cycles not folded in: %d <= %d", stored.Cycles, loaded.Cycles)
	}
	if d := stored.BusBytes - loaded.BusBytes; d != 3*32 {
		t.Errorf("flush put %d writeback bytes on the bus, want %d", d, 3*32)
	}
	if d := stored.EngineStalls - loaded.EngineStalls; d != 3*5 {
		t.Errorf("flush spills paid %d engine write cycles, want %d", d, 3*5)
	}
}

// Write-through stores must not clobber memory contents: after storing
// through an installed image, the CPU-side view must still round-trip.
// (The old granule-aligned path encrypted an all-zeros buffer and wrote
// it to DRAM.)
func TestWriteThroughPreservesDRAM(t *testing.T) {
	// The stateless XOR engine covers the granule-aligned and RMW
	// timing paths; the AEGIS-style engine (per-line chained CBC with
	// counter IVs) covers the data-path hazard that motivated the
	// full-line recipher — a granule-local rewrite under a chained
	// address-bound mode corrupts the rest of the line.
	engines := map[string]func() (edu.Engine, error){
		"xor-1":  func() (edu.Engine, error) { return fixedEngine{block: 1}, nil },
		"xor-16": func() (edu.Engine, error) { return fixedEngine{block: 16}, nil },
		"aegis": func() (edu.Engine, error) {
			return products.AEGIS([]byte("0123456789abcdef"), 0xae915)
		},
	}
	for name, build := range engines {
		eng, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Cache.WriteMode = cache.WriteThrough
		cfg.Engine = eng
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := bytes.Repeat([]byte("LIVE DATA MUST SURVIVE STORES..."), 4)
		if err := s.LoadImage(0x4000_0000, img); err != nil {
			t.Fatal(err)
		}
		// Store hits (after a load allocates) and store misses, at
		// aligned and unaligned offsets, in sizes above and below the
		// granule.
		tr := &trace.Trace{Name: "stores", Refs: []trace.Ref{
			{Kind: trace.Load, Addr: 0x4000_0000, Size: 4},
			{Kind: trace.Store, Addr: 0x4000_0000, Size: 4},
			{Kind: trace.Store, Addr: 0x4000_0013, Size: 1},
			{Kind: trace.Store, Addr: 0x4000_0040, Size: 8},
			{Kind: trace.Store, Addr: 0x4000_0061, Size: 1},
		}}
		s.Run(tr)
		if got := s.ReadPlain(0x4000_0000, len(img)); !bytes.Equal(got, img) {
			t.Errorf("%s: stores corrupted memory:\n got %q\nwant %q", name, got, img)
		}
	}
}

// A streaming source and its materialized trace must drive the SoC to
// the same report.
func TestStreamMatchesMaterialized(t *testing.T) {
	tcfg := trace.Config{Refs: 8000, Seed: 5, LoadFraction: 0.4, WriteFraction: 0.3, JumpRate: 0.03, Locality: 0.6}
	cfg := DefaultConfig()
	cfg.Engine = fixedEngine{block: 16, readCost: 9, writeCost: 4}

	sA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repStream := sA.Run(trace.SequentialSource(tcfg))

	sB, _ := New(cfg)
	repMat := sB.Run(trace.Drain(trace.SequentialSource(tcfg)))
	if repStream != repMat {
		t.Errorf("stream report differs from materialized:\n stream %+v\n mater  %+v", repStream, repMat)
	}
}

func TestReportCPIZeroInstructions(t *testing.T) {
	if (Report{}).CPI() != 0 || (Report{}).OverheadVs(Report{}) != 0 {
		t.Error("zero-division guards missing")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = fixedEngine{block: 16, readCost: 7}
	tr := smallTrace()
	r1, err := func() (Report, error) {
		s, err := New(cfg)
		if err != nil {
			return Report{}, err
		}
		return s.Run(tr), nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := New(cfg)
	r2 := s2.Run(tr)
	if r1.Cycles != r2.Cycles || r1.Cache != r2.Cache {
		t.Error("identical runs diverged")
	}
}

// A reused SoC reports each run on its own: its caches and bus count
// over the SoC's life, but a Report's counters, like its Cycles and
// Refs, cover one run. Three runs of one system on one source must read
// hits+misses == Refs every time, and the second and third (both from
// the same warm state) must report identical traffic.
func TestReusedSoCReportsPerRun(t *testing.T) {
	src := trace.SequentialSource(trace.Config{Refs: 20000, Seed: 3, LoadFraction: 0.4, WriteFraction: 0.3, JumpRate: 0.02, Locality: 0.6})
	for _, l2 := range []int{0, 64 << 10} {
		cfg := DefaultConfig()
		if l2 > 0 {
			cfg.L2 = DefaultL2Config(l2)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reps [3]Report
		for i := range reps {
			reps[i] = s.Run(src)
			if got := reps[i].Cache.Hits + reps[i].Cache.Misses; got != reps[i].Refs {
				t.Errorf("l2=%d run %d: L1 hits+misses = %d, want Refs = %d", l2, i+1, got, reps[i].Refs)
			}
		}
		a, b := reps[1], reps[2]
		if a.BusBytes != b.BusBytes || a.BusTxns != b.BusTxns || a.L2 != b.L2 {
			t.Errorf("l2=%d: runs 2 and 3 differ: bus %d B/%d txns, L2 %+v vs bus %d B/%d txns, L2 %+v",
				l2, a.BusBytes, a.BusTxns, a.L2, b.BusBytes, b.BusTxns, b.L2)
		}
	}
}

// The verified miss path must hold the 0 allocs/ref contract with a
// tree authenticator installed, whether verification walks terminate in
// the node cache (large cache: hit case) or climb to the root every
// time (single-node cache: miss case). Steady state: tag-store entries
// exist after the warmup run.
func TestVerifiedMissZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		variant        authtree.Variant
		nodeCacheBytes int
	}{
		{"hash-tree-cache-hits", authtree.HashTree, 64 << 10},
		{"hash-tree-cache-misses", authtree.HashTree, 128},
		{"counter-tree-cache-hits", authtree.CounterTree, 64 << 10},
		{"counter-tree-cache-misses", authtree.CounterTree, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ver, err := authtree.New(authtree.Config{
				Key:       []byte("0123456789abcdef"),
				LineBytes: 32,
				Regions: []authtree.Region{
					{Base: 0, Bytes: 1 << 20},
					{Base: 0x4000_0000, Bytes: 8 << 20},
				},
				NodeCacheBytes: tc.nodeCacheBytes,
				Variant:        tc.variant,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			ver.SetMetrics(authtree.NewMetrics(reg))
			cfg := DefaultConfig()
			cfg.Engine = fixedEngine{block: 16, readCost: 7, writeCost: 3}
			cfg.Verifier = ver
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := trace.SequentialSource(trace.Config{
				Refs: 20000, Seed: 3, LoadFraction: 0.4, WriteFraction: 0.4,
				JumpRate: 0.02, Locality: 0.5,
			})
			rep := s.Run(src) // warm DRAM pages, tag stores, node cache
			if rep.AuthStalls == 0 {
				t.Fatal("verifier charged no cycles; the test is not exercising the verified path")
			}
			if rep.AuthViolations != 0 {
				t.Fatalf("%d violations on an untampered run", rep.AuthViolations)
			}
			if avg := allocsPerRun(3, func() { s.Run(src) }); avg != 0 {
				t.Errorf("verified Run allocated %.1f times per 20k-ref run, want 0", avg)
			}
			// Sanity, not a tuning claim (the relative big-vs-small
			// cache comparison lives in the authtree locality test).
			hits, fetches := reg.Counter("authtree.node_hits").Load(), reg.Counter("authtree.node_fetches").Load()
			hitRate := float64(hits) / float64(hits+fetches)
			if tc.nodeCacheBytes >= 64<<10 && hitRate < 0.2 {
				t.Errorf("large node cache hit rate %.2f, want >= 0.2", hitRate)
			}
		})
	}
}

// --- two-level hierarchy ---

func l2Config(size int) cache.Config {
	return cache.Config{Size: size, LineSize: 32, Ways: 8, WriteMode: cache.WriteBack}
}

func TestL2Validation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2 = l2Config(64 << 10)
	cfg.L2.LineSize = 64
	if _, err := New(cfg); err == nil {
		t.Error("mismatched L1/L2 line sizes accepted")
	}

	cfg = DefaultConfig()
	cfg.L2 = l2Config(64 << 10)
	cfg.Cache.WriteMode = cache.WriteThrough
	if _, err := New(cfg); err == nil {
		t.Error("write-through L1 above an L2 accepted")
	}

	cfg = DefaultConfig()
	cfg.Placement = edu.PlacementL1L2
	if _, err := New(cfg); err == nil {
		t.Error("placement l1<->l2 without an L2 accepted")
	}
	cfg.Placement = edu.PlacementL2DRAM
	if _, err := New(cfg); err == nil {
		t.Error("placement l2<->dram without an L2 accepted")
	}

	// PlacementCPUCache without an L2 stays valid (E11's single-level
	// arrangement); with an L2 it selects the inner boundary.
	cfg = DefaultConfig()
	cfg.Placement = edu.PlacementCPUCache
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("single-level cpu<->cache placement rejected: %v", err)
	}
	if s.Placement() != edu.PlacementCacheMem {
		t.Errorf("single-level placement resolved to %v", s.Placement())
	}
	cfg.L2 = l2Config(64 << 10)
	if s, err = New(cfg); err != nil {
		t.Fatalf("cpu<->cache placement with L2 rejected: %v", err)
	}
	if s.Placement() != edu.PlacementCPUCache {
		t.Errorf("placement resolved to %v, want cpu<->cache", s.Placement())
	}
}

// firmwareishSource is a 48 KiB-footprint workload: overflows the L1
// but fits a 64 KiB L2, the regime where the L2 actually filters.
func firmwareishSource() trace.RefSource {
	return trace.SequentialSource(trace.Config{
		Refs: 40000, Seed: 22, LoadFraction: 0.35, WriteFraction: 0.4, JumpRate: 0.03, Locality: 0.5,
		CodeBase: 0, CodeSize: 16 << 10, DataBase: 0x4000_0000, DataSize: 32 << 10,
	})
}

// The placement contract: the inner boundary sees the full L1 miss
// stream (identical to a single-level system on the same trace), the
// outer boundary sees only what the L2 lets through.
func TestPlacementFiltersEngineTraffic(t *testing.T) {
	run := func(l2 int, p edu.Placement) Report {
		cfg := DefaultConfig()
		if l2 > 0 {
			cfg.L2 = l2Config(l2)
		}
		cfg.Placement = p
		cfg.Engine = fixedEngine{block: 16, readCost: 7, writeCost: 3}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(firmwareishSource())
	}
	single := run(0, edu.PlacementNone)
	inner := run(64<<10, edu.PlacementL1L2)
	outer := run(64<<10, edu.PlacementL2DRAM)

	if single.EngineLines == 0 {
		t.Fatal("no engine traffic at all")
	}
	if inner.EngineLines != single.EngineLines {
		t.Errorf("inner boundary exposure %d != single-level %d (the L1 miss stream is L2-independent)",
			inner.EngineLines, single.EngineLines)
	}
	if outer.EngineLines >= inner.EngineLines {
		t.Errorf("outer boundary exposure %d not filtered below inner %d", outer.EngineLines, inner.EngineLines)
	}
	// The same L1 demand stream everywhere.
	if inner.Cache.Misses != single.Cache.Misses || outer.Cache.Misses != single.Cache.Misses {
		t.Errorf("L1 miss stream diverged: single %d inner %d outer %d",
			single.Cache.Misses, inner.Cache.Misses, outer.Cache.Misses)
	}
	if inner.L2.Hits == 0 || outer.L2.Hits == 0 {
		t.Error("L2 never hit; the workload is not exercising the hierarchy")
	}
	// Engine stalls follow exposure.
	if outer.EngineStalls >= inner.EngineStalls {
		t.Errorf("outer engine stalls %d not below inner %d", outer.EngineStalls, inner.EngineStalls)
	}
}

// Data-path consistency with two levels: after a run full of stores,
// the final flush has drained both levels, and the CPU-side view of
// memory round-trips — under both placements, for a stateless XOR
// engine and the stateful AEGIS mode.
func TestL2DataPathConsistency(t *testing.T) {
	engines := map[string]func() (edu.Engine, error){
		"xor-16": func() (edu.Engine, error) { return fixedEngine{block: 16}, nil },
		"aegis": func() (edu.Engine, error) {
			return products.AEGIS([]byte("0123456789abcdef"), 0xae915)
		},
	}
	for name, build := range engines {
		for _, p := range []edu.Placement{edu.PlacementL1L2, edu.PlacementL2DRAM} {
			eng, err := build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.L2 = l2Config(64 << 10)
			cfg.Placement = p
			cfg.Engine = eng
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			img := bytes.Repeat([]byte("LIVE DATA MUST SURVIVE THE L2..."), 64)
			if err := s.LoadImage(0x4000_0000, img); err != nil {
				t.Fatal(err)
			}
			// Loads and stores across the image, plus far misses to force
			// evictions through both levels.
			src := trace.SequentialSource(trace.Config{
				Refs: 30000, Seed: 5, LoadFraction: 0.5, WriteFraction: 0.0, JumpRate: 0.05,
				CodeBase: 0x4000_0000, CodeSize: uint64(len(img)),
				DataBase: 0x4000_0000, DataSize: uint64(len(img)),
			})
			s.Run(src)
			if got := s.ReadPlain(0x4000_0000, len(img)); !bytes.Equal(got, img) {
				t.Errorf("%s/%v: post-run memory corrupted", name, p)
			}
			// Shadow arenas stay bounded by hierarchy capacity.
			if want := cfg.Cache.Size + cfg.L2.Size; shadowBytes(s) != want {
				t.Errorf("%s/%v: shadow = %d bytes, want %d", name, p, shadowBytes(s), want)
			}
		}
	}
}

// A probe on the external bus must see ciphertext only, under both
// placements: with the EDU at L1<->L2 the raw moves carry bytes the
// engine already transformed.
func TestL2ProbeSeesCiphertextOnly(t *testing.T) {
	secret := bytes.Repeat([]byte("SECRET-INSTRUCTION-STREAM!"), 4)
	for _, p := range []edu.Placement{edu.PlacementL1L2, edu.PlacementL2DRAM} {
		cfg := DefaultConfig()
		cfg.L2 = l2Config(64 << 10)
		cfg.Placement = p
		cfg.Engine = fixedEngine{block: 16}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadImage(0x1000, secret); err != nil {
			t.Fatal(err)
		}
		sn := &sniffer{}
		s.Bus().Attach(sn)
		s.Run(&trace.Trace{Name: "touch", Refs: []trace.Ref{
			{Kind: trace.Fetch, Addr: 0x1000, Size: 4},
			{Kind: trace.Fetch, Addr: 0x1020, Size: 4},
			{Kind: trace.Fetch, Addr: 0x1040, Size: 4},
		}})
		if bytes.Contains(sn.data, secret[:16]) {
			t.Errorf("placement %v: probe captured plaintext", p)
		}
	}
}

// The 0 allocs/ref contract must hold with an L2 — miss path through
// both levels, raw moves, and the verifier installed — under both
// placements.
func TestHotLoopZeroAllocsL2(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    edu.Placement
	}{
		{"outer", edu.PlacementL2DRAM},
		{"inner", edu.PlacementL1L2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ver, err := authtree.New(authtree.Config{
				Key:       []byte("0123456789abcdef"),
				LineBytes: 32,
				Regions: []authtree.Region{
					{Base: 0, Bytes: 1 << 20},
					{Base: 0x4000_0000, Bytes: 8 << 20},
				},
				NodeCacheBytes: 4 << 10,
				Variant:        authtree.CounterTree,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.L2 = l2Config(64 << 10)
			cfg.Placement = tc.p
			cfg.Engine = fixedEngine{block: 16, readCost: 7, writeCost: 3}
			cfg.Verifier = ver
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := trace.SequentialSource(trace.Config{
				Refs: 20000, Seed: 3, LoadFraction: 0.4, WriteFraction: 0.4,
				JumpRate: 0.02, Locality: 0.5,
			})
			rep := s.Run(src) // warm DRAM pages, tag stores, node cache, event buffers
			if rep.AuthStalls == 0 {
				t.Fatal("verifier charged no cycles")
			}
			if rep.AuthViolations != 0 {
				t.Fatalf("%d violations on an untampered run", rep.AuthViolations)
			}
			if avg := allocsPerRun(3, func() { s.Run(src) }); avg != 0 {
				t.Errorf("two-level Run allocated %.1f times per 20k-ref run, want 0", avg)
			}
		})
	}
}

// With the EDU (and verifier) at the inner boundary, a tamper planted
// in DRAM is still caught — when the line climbs back through the L2
// and crosses into the L1.
func TestInnerPlacementDetectsTamper(t *testing.T) {
	ver, err := authtree.New(authtree.Config{
		Key:            []byte("0123456789abcdef"),
		LineBytes:      32,
		Regions:        []authtree.Region{{Base: 0, Bytes: 1 << 20}},
		NodeCacheBytes: 4 << 10,
		Variant:        authtree.HashTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L2 = l2Config(64 << 10)
	cfg.Placement = edu.PlacementL1L2
	cfg.Engine = fixedEngine{block: 16}
	cfg.Verifier = ver
	// An intruder that never strikes, only listens for violations.
	intr := &corruptor{struck: true}
	cfg.Intruder = intr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i * 13)
	}
	if err := s.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	// Corrupt a line in DRAM before anything is resident.
	junk := bytes.Repeat([]byte{0xEE}, 32)
	s.DRAM().Write(0x40, junk)
	rep := s.Run(&trace.Trace{Name: "touch", Refs: []trace.Ref{
		{Kind: trace.Fetch, Addr: 0x40, Size: 4},
	}})
	if rep.AuthViolations == 0 {
		t.Error("tamper crossed the inner boundary undetected")
	}
	if want := []uint64{0, 0x40}; !slices.Equal(intr.violations, want) {
		t.Errorf("intruder told of violations %#x, want %#x", intr.violations, want)
	}
}

// TestStrikeBeforeFirstFillDetected: a protected line no write has
// reached is trusted only as unwritten (all-zero) DRAM, so a strike
// that lands before the line's first fill is a violation on that fill,
// not enrolled as genuine.
func TestStrikeBeforeFirstFillDetected(t *testing.T) {
	tree, err := authtree.New(authtree.Config{
		Key:       []byte("0123456789abcdef"),
		LineBytes: 32,
		Regions:   []authtree.Region{{Base: 0, Bytes: 1 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := authtree.NewFlat(authtree.FlatConfig{Key: []byte("0123456789abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []edu.Verifier{tree, flat} {
		cfg := DefaultConfig()
		cfg.Engine = fixedEngine{block: 16}
		cfg.Verifier = ver
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.DRAM().Write(0x40, bytes.Repeat([]byte{0xEE}, 32))
		rep := s.Run(&trace.Trace{Name: "first-fill", Refs: []trace.Ref{
			{Kind: trace.Load, Addr: 0x40, Size: 4},
			{Kind: trace.Load, Addr: 0x80, Size: 4}, // unwritten: enrolls
		}})
		if rep.AuthViolations != 1 {
			t.Errorf("%s: %d violations, want 1 (the struck line only)", ver.Name(), rep.AuthViolations)
		}
	}
}
