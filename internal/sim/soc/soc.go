// Package soc composes the simulated system-on-chip of the survey's
// Figure 2c: trace-driven CPU core, one or two levels of on-chip cache,
// an encryption/decryption unit at one of the Figure 7 placements, the
// external bus (probe-able), and external DRAM. It produces the cycle
// counts from which every experiment's overhead figure is derived.
//
// The timing model is deterministic cycle accounting for an in-order,
// single-issue core: each trace reference contributes its compute gap,
// the cache hit time, and — on misses and write-throughs — the memory
// transfer plus whatever stall the engine adds. DESIGN.md §4 documents
// why this level of modeling preserves the survey's relative results.
package soc

import (
	"fmt"

	"repro/internal/edu"
	"repro/internal/obs/rec"
	"repro/internal/sim/bus"
	"repro/internal/sim/cache"
	"repro/internal/sim/dram"
	"repro/internal/sim/trace"
)

// DefaultL2HitCycles is the L2 access latency assumed when an L2 is
// configured without an explicit latency: a 2005-class on-chip SRAM
// L2, several core cycles slower than the L1.
const DefaultL2HitCycles = 6

// Config assembles a system.
type Config struct {
	Cache cache.Config
	// L2 is an optional second-level cache between the L1 and DRAM
	// (zero value = single-level system). Its line size must equal the
	// L1's — a line is the unit moved between levels — and both levels
	// must be write-back (write-through through a hierarchy is not
	// modeled).
	L2 cache.Config
	// L2HitCycles is the L2 access latency in CPU cycles, charged on
	// every line transfer between L1 and L2; defaults to
	// DefaultL2HitCycles when an L2 is configured.
	L2HitCycles int
	// Placement selects which hierarchy boundary the engine and
	// verifier guard (DESIGN.md §4): the zero value picks the outermost
	// boundary — cache<->DRAM in a single-level system, L2<->DRAM with
	// an L2 — which is the classic Figure 7a arrangement. PlacementL1L2
	// (and PlacementCPUCache with an L2) moves the unit inward: every
	// L1 miss crosses it, the L2 and DRAM hold ciphertext, and
	// L2<->DRAM transfers move raw ciphertext with no engine stall.
	Placement edu.Placement
	Bus       bus.Config
	DRAM      dram.Config
	// CacheHitCycles is the L1 hit latency in CPU cycles.
	CacheHitCycles int
	// Engine is the bus-encryption unit; nil means edu.Null{}.
	Engine edu.Engine
	// Verifier is the memory authenticator (sim/authtree, or any
	// edu.Verifier); nil means no integrity checking. It is driven on
	// the same traffic as the engine — whatever crosses the guarded
	// boundary — but independently of it, so any confidentiality engine
	// composes with any authenticator.
	Verifier edu.Verifier
	// ViolationCycles is the security-exception cost charged per
	// detected verification failure (trap entry and the fail-stop
	// decision path) before the line is zeroed. Only meaningful with a
	// Verifier installed.
	ViolationCycles int
	// Intruder, when non-nil, is invoked before every reference with
	// the running reference index: the active adversary tampering with
	// external state mid-run (internal/attack.Schedule).
	Intruder Intruder
	// OnViolation, when non-nil, observes each detected tamper: the
	// reference index at which verification failed and the line
	// address. The attack schedule uses it to measure detection
	// latency.
	OnViolation func(refIndex, lineAddr uint64)
	// SkipFinalFlush disables the end-of-run drain of dirty cache
	// lines. The default (false) spills every dirty line when Run
	// finishes and folds the cycles into the report, so writeback
	// traffic is fully accounted; Compare flushes both systems, keeping
	// the overhead comparison apples-to-apples.
	SkipFinalFlush bool
	// Metrics, when non-nil, installs live observability: the hot loop
	// counts in plain fields and publishes the deltas into the bundle's
	// pre-registered atomic metrics every 4096 references and at the end
	// of Run, with zero allocations (the obs fixed-registry contract).
	// nil runs exactly as before — publishes become nil-receiver no-ops.
	Metrics *Metrics
	// Recorder, when non-nil, installs the flight recorder
	// (internal/obs/rec): the hot loop emits one fixed-size event per
	// line transfer, EDU granule batch, verification, and trap into the
	// preallocated ring, stamped with simulated-cycle time and reference
	// index — still zero allocations per reference. nil (the default)
	// publishes nowhere via nil-receiver no-ops.
	Recorder *rec.Recorder
}

// Intruder is an active adversary with write access to external state
// (DRAM contents, external tag stores) during a run — the attack model
// of the survey's §2.3 extended to modification. Strike is called once
// per reference, before the reference is processed; implementations
// tamper via s.DRAM() and the engine/verifier tag stores, never via
// timing-bearing paths.
type Intruder interface {
	Strike(refIndex uint64, ref trace.Ref, s *SoC)
}

// DefaultConfig is the reference 2005-class embedded system used across
// the experiments: 16 KiB 4-way cache with 32-byte lines, a 32-bit bus
// at half the core clock, and DefaultConfig DRAM.
func DefaultConfig() Config {
	return Config{
		Cache: cache.Config{
			Size: 16 << 10, LineSize: 32, Ways: 4,
			Policy: cache.LRU, WriteMode: cache.WriteBack,
		},
		Bus:             bus.Config{WidthBytes: 4, ClockDivider: 2, AddressCycles: 2},
		DRAM:            dram.DefaultConfig(),
		CacheHitCycles:  1,
		ViolationCycles: 100,
	}
}

// DefaultL2Config returns the standard L2 geometry for a given capacity:
// 8-way write-back with the reference 32-byte lines — the shape the
// campaign's -l2 axis and E22 sweep.
func DefaultL2Config(size int) cache.Config {
	return cache.Config{
		Size: size, LineSize: 32, Ways: 8,
		Policy: cache.LRU, WriteMode: cache.WriteBack,
	}
}

// Report is the outcome of one run.
type Report struct {
	EngineName   string
	Workload     string
	Cycles       uint64
	Instructions uint64 // fetch count
	Refs         uint64
	StallCycles  uint64 // cycles beyond compute + hit time
	EngineStalls uint64 // the portion attributable to the engine
	RMWEvents    uint64 // partial writes that forced read-modify-write
	// FlushedLines counts line spills performed by the end-of-run drain
	// of dirty cache lines (cycles included in Cycles). With an L2 the
	// drain moves lines boundary by boundary, so an L1 line that
	// flushes into the L2 and from there to DRAM counts twice — the
	// count is spill traffic, not distinct lines.
	FlushedLines uint64
	// EngineLines counts the line-granule transfers that crossed the
	// engine's boundary (fills, spills, write-through rewrites): the
	// unit's exposed bandwidth, the quantity E22's placement argument
	// is about. Transfers at unguarded boundaries (raw ciphertext
	// moves, plaintext L1<->L2 moves) are not counted.
	EngineLines uint64
	// AuthStalls is the verifier-side portion of StallCycles: tag
	// computation, tree walks, node fetches, violation traps.
	AuthStalls uint64
	// AuthViolations counts fail-stop events: every failed line
	// verification (zeroed line + trap charge). A tampered line that is
	// never repaired re-triggers on each refill, so this can exceed the
	// number of distinct tampers — real fail-stop hardware would halt
	// at the first event; the simulation keeps running and charges each
	// one. Distinct-tamper detection counts live in the attack
	// schedule (internal/attack.Schedule.Detected).
	AuthViolations uint64
	Cache          cache.Stats
	// L2 carries the second-level cache's counters (zero without an
	// L2). Installs from L1 writebacks share the hit/miss counters with
	// demand fills: the stats describe all traffic arriving at the L2.
	L2       cache.Stats
	BusBytes uint64
	BusTxns  uint64
}

// CPI returns cycles per instruction.
func (r Report) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// OverheadVs returns the fractional slowdown of r relative to the
// baseline run base (0.25 = 25 % more cycles), the number every
// surveyed paper quotes.
func (r Report) OverheadVs(base Report) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles)/float64(base.Cycles) - 1
}

// SoC is one assembled system.
type SoC struct {
	cfg      Config
	hier     *cache.Hierarchy
	cache    *cache.Cache // level 0
	l2       *cache.Cache // nil in a single-level system
	bus      *bus.Bus
	dram     *dram.DRAM
	engine   edu.Engine
	verifier edu.Verifier
	// inner is true when the engine/verifier guard the L1<->L2 boundary
	// (Placement L1L2 or CPUCache with an L2): the L2 holds ciphertext
	// and L2<->DRAM transfers are raw moves.
	inner bool
	// placement is the resolved boundary (defaults substituted).
	placement edu.Placement
	l2Hit     uint64
	// curRef is the index of the reference Run is processing, for
	// violation timestamps (detection-latency measurement).
	curRef uint64
	// shadows hold the per-level resident-line data in flat arenas
	// indexed by each cache's line slot, so their footprint is exactly
	// the hierarchy capacity and entries are recycled in lockstep with
	// evictions — clean or dirty. Level 0 always holds plaintext (the
	// CPU's view); level 1 holds plaintext when the engine guards the
	// outer boundary and ciphertext when it guards the inner one. The
	// arenas exist because the caches are timing/state models without a
	// data store, but writebacks must put real bytes on the probed bus.
	shadows [][]byte
	// Preallocated scratch so the per-reference hot path never
	// allocates: inbound ciphertext, outbound ciphertext, and a line of
	// plaintext for non-resident write-through rewrites.
	ctIn, ctOut, ptBuf []byte
	// m is the live metrics bundle (zero value = publish nowhere);
	// tally batches the hot loop's counts between publishes.
	m     Metrics
	tally tally
	// rc is the flight recorder (nil = no-op sink); granules is the
	// engine blocks per line figure EDU events carry; flushing marks
	// transfers emitted by the end-of-run drain (FlagFlush).
	rc       *rec.Recorder
	granules uint64
	flushing bool
}

// New assembles a system from cfg.
func New(cfg Config) (*SoC, error) {
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	b, err := bus.New(cfg.Bus)
	if err != nil {
		return nil, err
	}
	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	eng := cfg.Engine
	if eng == nil {
		eng = edu.Null{}
	}
	if cfg.CacheHitCycles <= 0 {
		return nil, fmt.Errorf("soc: non-positive cache hit latency %d", cfg.CacheHitCycles)
	}
	if cfg.ViolationCycles < 0 {
		return nil, fmt.Errorf("soc: negative violation cost %d", cfg.ViolationCycles)
	}
	if cfg.Cache.LineSize%eng.BlockBytes() != 0 {
		return nil, fmt.Errorf("soc: line size %d not a multiple of engine granule %d",
			cfg.Cache.LineSize, eng.BlockBytes())
	}

	var l2 *cache.Cache
	l2Hit := uint64(0)
	if cfg.L2.Size != 0 {
		if l2, err = cache.New(cfg.L2); err != nil {
			return nil, err
		}
		switch {
		case cfg.L2HitCycles < 0:
			return nil, fmt.Errorf("soc: negative L2 hit latency %d", cfg.L2HitCycles)
		case cfg.L2HitCycles == 0:
			l2Hit = DefaultL2HitCycles
		default:
			l2Hit = uint64(cfg.L2HitCycles)
		}
	} else if cfg.L2HitCycles != 0 {
		return nil, fmt.Errorf("soc: L2 hit latency set without an L2 cache")
	}

	inner := false
	placement := edu.PlacementCacheMem
	if l2 != nil {
		placement = edu.PlacementL2DRAM
	}
	switch cfg.Placement {
	case edu.PlacementNone, edu.PlacementCacheMem:
		// Outermost boundary, whatever the hierarchy depth.
	case edu.PlacementL2DRAM:
		if l2 == nil {
			return nil, fmt.Errorf("soc: placement %s requires an L2 cache", cfg.Placement)
		}
	case edu.PlacementL1L2:
		if l2 == nil {
			return nil, fmt.Errorf("soc: placement %s requires an L2 cache", cfg.Placement)
		}
		inner = true
		placement = edu.PlacementL1L2
	case edu.PlacementCPUCache:
		// Single-level: the cache<->DRAM boundary is the only line-
		// granule boundary and the engine's PerAccessCycles already
		// model the CPU-side path. With an L2, the unit guards the
		// inner boundary.
		if l2 != nil {
			inner = true
			placement = edu.PlacementCPUCache
		}
	default:
		return nil, fmt.Errorf("soc: unknown placement %v", cfg.Placement)
	}

	levels := []*cache.Cache{c}
	if l2 != nil {
		levels = append(levels, l2)
	}
	hier, err := cache.NewHierarchy(levels...)
	if err != nil {
		return nil, fmt.Errorf("soc: %w", err)
	}

	ls := cfg.Cache.LineSize
	shadows := make([][]byte, len(levels))
	for i, lvl := range levels {
		shadows[i] = make([]byte, lvl.Lines()*ls)
	}
	s := &SoC{
		cfg: cfg, hier: hier, cache: c, l2: l2, bus: b, dram: d,
		engine: eng, verifier: cfg.Verifier,
		inner: inner, placement: placement, l2Hit: l2Hit,
		shadows:  shadows,
		ctIn:     make([]byte, ls),
		ctOut:    make([]byte, ls),
		ptBuf:    make([]byte, ls),
		rc:       cfg.Recorder,
		granules: uint64(ls / eng.BlockBytes()),
	}
	if cfg.Metrics != nil {
		s.m = *cfg.Metrics
	}
	return s, nil
}

// ShadowBytes reports the total size of the resident-line data store —
// fixed at hierarchy capacity by construction (the regression guard for
// the old unbounded shadow map, which grew with every clean eviction).
func (s *SoC) ShadowBytes() int {
	n := 0
	for _, sh := range s.shadows {
		n += len(sh)
	}
	return n
}

// slotData returns the shadow data for a cache slot at a level.
func (s *SoC) slotData(level, slot int) []byte {
	ls := s.cfg.Cache.LineSize
	return s.shadows[level][slot*ls : (slot+1)*ls]
}

// Bus exposes the bus for probe attachment.
func (s *SoC) Bus() *bus.Bus { return s.bus }

// Cache exposes the first-level cache. The attack model reads residency
// from the hierarchy (Resident): a probe attacker reconstructs cache
// contents from the fill/eviction traffic it watches.
func (s *SoC) Cache() *cache.Cache { return s.cache }

// L2 exposes the second-level cache (nil in a single-level system).
func (s *SoC) L2() *cache.Cache { return s.l2 }

// Resident reports whether addr's line is held at any cache level —
// "on-chip" from the probe attacker's vantage point: a resident line is
// served without touching DRAM, and its eventual writeback overwrites
// whatever an adversary planted there.
func (s *SoC) Resident(addr uint64) bool {
	if s.cache.Contains(addr) {
		return true
	}
	return s.l2 != nil && s.l2.Contains(addr)
}

// DRAM exposes external memory (the attacker can dump it).
func (s *SoC) DRAM() *dram.DRAM { return s.dram }

// Engine returns the installed engine.
func (s *SoC) Engine() edu.Engine { return s.engine }

// Verifier returns the installed memory authenticator (nil if none).
func (s *SoC) Verifier() edu.Verifier { return s.verifier }

// Placement reports the hierarchy boundary the engine and verifier
// guard in this system, with the configured default resolved to the
// outermost boundary of the hierarchy.
func (s *SoC) Placement() edu.Placement { return s.placement }

// LoadImage installs plaintext data into external memory through the
// engine, line by line — the survey's step 6: "the processor uses K and
// a symmetric algorithm to decipher the software and to install the code
// in the external memory" (installed re-ciphered under the bus engine).
func (s *SoC) LoadImage(addr uint64, data []byte) error {
	ls := s.cfg.Cache.LineSize
	if addr%uint64(ls) != 0 {
		return fmt.Errorf("soc: image base %#x not line aligned", addr)
	}
	for off := 0; off < len(data); off += ls {
		line := make([]byte, ls)
		copy(line, data[off:])
		ct := make([]byte, ls)
		s.engine.EncryptLine(addr+uint64(off), ct, line)
		s.dram.Write(addr+uint64(off), ct)
		if s.verifier != nil {
			// Enrollment: the image install is the boot-time write that
			// brings each line under authentication (no timing — this is
			// the survey's step 6, outside the measured run).
			s.verifier.UpdateWrite(addr+uint64(off), ct)
		}
	}
	return nil
}

// ReadPlain fetches n bytes at addr through the engine (a debug/verify
// path, no timing): what the CPU would see. It reads DRAM directly,
// bypassing the hierarchy; with an inner placement and lines still
// dirty in the L2, DRAM (and hence this view) lags the verifier's
// state until the end-of-run flush drains them.
func (s *SoC) ReadPlain(addr uint64, n int) []byte {
	ls := s.cfg.Cache.LineSize
	start := addr &^ uint64(ls-1)
	end := (addr + uint64(n) + uint64(ls) - 1) &^ uint64(ls-1)
	out := make([]byte, 0, end-start)
	for a := start; a < end; a += uint64(ls) {
		ct := s.dram.Read(a, ls)
		pt := make([]byte, ls)
		s.engine.DecryptLine(a, pt, ct)
		if s.verifier != nil {
			if _, ok := s.verifier.VerifyRead(a, ct); !ok {
				clear(pt) // fail-stop: the CPU never sees tampered data
			}
		}
		out = append(out, pt...)
	}
	off := int(addr - start)
	return out[off : off+n]
}

// transferSize asks the engine how many bytes of a line actually cross
// the bus (compressed code moves fewer — Figure 8).
func (s *SoC) transferSize(lineAddr uint64, lineBytes int) int {
	if ts, ok := s.engine.(edu.TransferSizer); ok {
		if n := ts.TransferBytes(lineAddr, lineBytes); n > 0 && n < lineBytes {
			return n
		}
	}
	return lineBytes
}

// fill performs a line fill across the chip boundary into pt: DRAM
// access, bus transfer of ciphertext, engine decryption, and — with a
// verifier installed — read verification of the inbound ciphertext.
// Returns total CPU cycles for the miss path. Allocation-free: scratch
// buffers and the slot arenas are preallocated.
func (s *SoC) fill(lineAddr uint64, pt []byte, rep *Report) (cycles, engineStall uint64) {
	ls := s.cfg.Cache.LineSize
	dramCycles := s.dram.AccessCycles(lineAddr)
	s.dram.ReadInto(lineAddr, s.ctIn)
	busCycles := s.bus.Transfer(bus.Read, lineAddr, s.ctIn[:s.transferSize(lineAddr, ls)])
	s.engine.DecryptLine(lineAddr, pt, s.ctIn)
	rep.EngineLines++
	s.rc.Emit(rec.KindDecipher, lineAddr, 0, 0, s.granules)
	transfer := dramCycles + busCycles
	extra := s.engine.ReadExtraCycles(lineAddr, ls, transfer)
	cycles = transfer + extra
	if s.verifier != nil {
		cycles += s.verifyInbound(lineAddr, s.ctIn, pt, rep)
	}
	return cycles, extra
}

// verifyInbound authenticates the inbound ciphertext ct for the line at
// lineAddr and applies the fail-stop response to pt on a detected
// tamper: zero the plaintext, charge the violation trap, count it, and
// notify the observer. Returns the verifier-side cycles.
func (s *SoC) verifyInbound(lineAddr uint64, ct, pt []byte, rep *Report) uint64 {
	stall, ok := s.verifier.VerifyRead(lineAddr, ct)
	rep.AuthStalls += stall
	if ok {
		s.rc.Emit(rec.KindVerify, lineAddr, 0, 0, stall)
	} else {
		s.rc.Emit(rec.KindVerify, lineAddr, 0, rec.FlagFail, stall)
		s.rc.Emit(rec.KindTrap, lineAddr, 0, 0, uint64(s.cfg.ViolationCycles))
		stall += uint64(s.cfg.ViolationCycles)
		rep.AuthStalls += uint64(s.cfg.ViolationCycles)
		rep.AuthViolations++
		clear(pt)
		if s.cfg.OnViolation != nil {
			s.cfg.OnViolation(s.curRef, lineAddr)
		}
	}
	return stall
}

// spill writes a dirty line's plaintext pt out across the chip
// boundary: engine encryption, bus, DRAM, and the verifier's
// write-update (retag plus tree propagation). The caller owns pt
// (normally the victim's shadow slot, read before the subsequent fill
// overwrites it).
func (s *SoC) spill(lineAddr uint64, pt []byte, rep *Report) (cycles, engineStall uint64) {
	ls := s.cfg.Cache.LineSize
	s.engine.EncryptLine(lineAddr, s.ctOut, pt)
	rep.EngineLines++
	s.rc.Emit(rec.KindEncipher, lineAddr, 0, 0, s.granules)
	dramCycles := s.dram.AccessCycles(lineAddr)
	busCycles := s.bus.Transfer(bus.Write, lineAddr, s.ctOut[:s.transferSize(lineAddr, ls)])
	s.dram.Write(lineAddr, s.ctOut)
	extra := s.engine.WriteExtraCycles(lineAddr, ls)
	cycles = dramCycles + busCycles + extra + s.updateOutbound(lineAddr, rep)
	return cycles, extra
}

// rawFill moves a ciphertext line from DRAM into ct without any engine
// or verifier involvement — the outer boundary of a system whose EDU
// guards the L1<->L2 boundary: the L2 stores the same bytes DRAM holds.
func (s *SoC) rawFill(lineAddr uint64, ct []byte) (cycles uint64) {
	ls := s.cfg.Cache.LineSize
	dramCycles := s.dram.AccessCycles(lineAddr)
	s.dram.ReadInto(lineAddr, ct)
	busCycles := s.bus.Transfer(bus.Read, lineAddr, ct[:s.transferSize(lineAddr, ls)])
	return dramCycles + busCycles
}

// rawSpill is rawFill's outbound counterpart: a ciphertext line moves
// from the L2 to DRAM unchanged.
func (s *SoC) rawSpill(lineAddr uint64, ct []byte) (cycles uint64) {
	ls := s.cfg.Cache.LineSize
	dramCycles := s.dram.AccessCycles(lineAddr)
	busCycles := s.bus.Transfer(bus.Write, lineAddr, ct[:s.transferSize(lineAddr, ls)])
	s.dram.Write(lineAddr, ct)
	return dramCycles + busCycles
}

// innerFill deciphers a line crossing the guarded L1<->L2 boundary:
// ciphertext from the L2 slot, plaintext into the L1 slot, verification
// of the inbound ciphertext. The transfer window the engine can overlap
// is the L2 access itself.
func (s *SoC) innerFill(lineAddr uint64, pt, ct []byte, rep *Report) (cycles, engineStall uint64) {
	ls := s.cfg.Cache.LineSize
	s.engine.DecryptLine(lineAddr, pt, ct)
	rep.EngineLines++
	s.rc.Emit(rec.KindDecipher, lineAddr, 0, rec.FlagInner, s.granules)
	extra := s.engine.ReadExtraCycles(lineAddr, ls, s.l2Hit)
	cycles = s.l2Hit + extra
	if s.verifier != nil {
		cycles += s.verifyInbound(lineAddr, ct, pt, rep)
	}
	return cycles, extra
}

// innerSpill enciphers a dirty L1 line into its L2 slot and runs the
// verifier's write-update — the outbound crossing of the guarded
// L1<->L2 boundary. DRAM is untouched until the L2 evicts the line.
func (s *SoC) innerSpill(lineAddr uint64, pt, ct []byte, rep *Report) (cycles, engineStall uint64) {
	ls := s.cfg.Cache.LineSize
	s.engine.EncryptLine(lineAddr, ct, pt)
	rep.EngineLines++
	s.rc.Emit(rec.KindEncipher, lineAddr, 0, rec.FlagInner, s.granules)
	extra := s.engine.WriteExtraCycles(lineAddr, ls)
	cycles = s.l2Hit + extra
	if s.verifier != nil {
		us := s.verifier.UpdateWrite(lineAddr, ct)
		rep.AuthStalls += us
		s.rc.Emit(rec.KindRetag, lineAddr, 0, rec.FlagInner, us)
		cycles += us
	}
	return cycles, extra
}

// processEvent costs one hierarchy line transfer and moves its data:
// engine-guarded crossings run the transform and verifier, unguarded
// ones move bytes raw (outer boundary under an inner placement) or in
// plaintext (L1<->L2 under an outer placement).
func (s *SoC) processEvent(ev cache.Event, rep *Report) {
	// Stamp the transfer's start time: every event the transfer causes
	// (EDU batches, verifications, tree walks, traps) shares it, and
	// the closing KindFill/KindWriteback record carries the total cost.
	s.rc.Stamp(rep.Cycles, s.curRef)
	var c, e uint64
	if ev.PeerSlot < 0 {
		// The chip boundary: DRAM on the far side.
		data := s.slotData(ev.Level, ev.Slot)
		switch {
		case s.inner && ev.Kind == cache.EvFill:
			c = s.rawFill(ev.Addr, data)
		case s.inner:
			c = s.rawSpill(ev.Addr, data)
		case ev.Kind == cache.EvFill:
			c, e = s.fill(ev.Addr, data, rep)
		default:
			c, e = s.spill(ev.Addr, data, rep)
		}
	} else {
		// The L1<->L2 boundary.
		l1Data := s.slotData(ev.Level, ev.Slot)
		l2Data := s.slotData(ev.Level+1, ev.PeerSlot)
		switch {
		case s.inner && ev.Kind == cache.EvFill:
			c, e = s.innerFill(ev.Addr, l1Data, l2Data, rep)
		case s.inner:
			c, e = s.innerSpill(ev.Addr, l1Data, l2Data, rep)
		case ev.Kind == cache.EvFill:
			copy(l1Data, l2Data)
			c = s.l2Hit
		default:
			copy(l2Data, l1Data)
			c = s.l2Hit
		}
	}
	if s.rc != nil {
		kind := rec.KindFill
		if ev.Kind != cache.EvFill {
			kind = rec.KindWriteback
		}
		flags := uint8(0)
		if ev.PeerSlot < 0 {
			flags |= rec.FlagChip
		}
		if s.flushing {
			flags |= rec.FlagFlush
		}
		s.rc.Emit(kind, ev.Addr, uint8(ev.Level), flags, c)
	}
	rep.Cycles += c
	rep.StallCycles += c
	rep.EngineStalls += e
	chip := 0
	if ev.PeerSlot < 0 {
		chip = 1
	}
	s.tally.transfers[ev.Kind][chip]++
	s.tally.cycles.Observe(c)
}

// writeThrough costs a store of size bytes at addr going straight to
// memory. If the store granule is smaller than the engine's block, the
// survey's five-step read-decipher-modify-recipher-write sequence runs.
// Only reachable in a single-level system (the hierarchy rejects a
// write-through L1 above an L2), so the engine boundary is the chip
// boundary.
//
// Timing is granule-accurate (the survey's §2.2 sequence); the data
// path operates on the whole enclosing line so DRAM always holds the
// per-line ciphertext layout LoadImage installed and ReadPlain expects
// — re-enciphering a lone granule under a chained or address-bound mode
// would clobber real memory contents. Stores carry no data in this
// model, so the line's plaintext is written back unchanged (counter
// modes still advance, so the ciphertext may legitimately differ).
// hitSlot is the resident line's shadow slot, or -1 on a no-allocate
// write miss (the plaintext is then recovered from DRAM).
func (s *SoC) writeThrough(addr uint64, size, hitSlot int, rep *Report) (cycles, engineStall uint64) {
	ls := s.cfg.Cache.LineSize
	bb := s.engine.BlockBytes()
	lineAddr := addr &^ uint64(ls-1)

	// Data path: the line's actual plaintext, then a full-line recipher.
	// The current DRAM ciphertext is only needed to recover a
	// non-resident line's plaintext or to put the RMW granule read on
	// the bus.
	needRMW := s.engine.NeedsRMW(size)
	if hitSlot < 0 || needRMW {
		s.dram.ReadInto(lineAddr, s.ctIn)
	}
	var authStall uint64
	pt := s.ptBuf
	if hitSlot >= 0 {
		pt = s.slotData(0, hitSlot)
	} else {
		s.engine.DecryptLine(lineAddr, pt, s.ctIn)
		rep.EngineLines++
		s.rc.Emit(rec.KindDecipher, lineAddr, 0, 0, s.granules)
		if s.verifier != nil {
			// The recovered line comes from tamperable memory: verify it
			// before its plaintext feeds the rewrite.
			authStall += s.verifyInbound(lineAddr, s.ctIn, pt, rep)
		}
	}
	s.engine.EncryptLine(lineAddr, s.ctOut, pt)
	rep.EngineLines++
	s.rc.Emit(rec.KindEncipher, lineAddr, 0, 0, s.granules)

	if needRMW {
		rep.RMWEvents++
		blockAddr := addr &^ uint64(bb-1)
		gOff := int(blockAddr - lineAddr)
		// Read the enclosing granule...
		dramR := s.dram.AccessCycles(blockAddr)
		busR := s.bus.Transfer(bus.Read, blockAddr, s.ctIn[gOff:gOff+bb])
		readExtra := s.engine.ReadExtraCycles(blockAddr, bb, dramR+busR)
		// ...decipher, modify, re-cipher (performed line-wide above; the
		// store's value is irrelevant to timing)...
		writeExtra := s.engine.WriteExtraCycles(blockAddr, bb)
		// ...and write back.
		dramW := s.dram.AccessCycles(blockAddr)
		busW := s.bus.Transfer(bus.Write, blockAddr, s.ctOut[gOff:gOff+bb])
		s.dram.Write(lineAddr, s.ctOut)
		authStall += s.updateOutbound(lineAddr, rep)
		stall := readExtra + writeExtra
		return dramR + busR + dramW + busW + stall + authStall, stall
	}
	// Granule-aligned store: encrypt and write one granule.
	n := size
	if bb > n {
		n = bb
	}
	blockAddr := addr &^ uint64(bb-1)
	gOff := int(blockAddr - lineAddr)
	if gOff+n > ls {
		n = ls - gOff // clamp to the line (stores never straddle lines)
	}
	extra := s.engine.WriteExtraCycles(blockAddr, n)
	dramW := s.dram.AccessCycles(blockAddr)
	busW := s.bus.Transfer(bus.Write, blockAddr, s.ctOut[gOff:gOff+n])
	s.dram.Write(lineAddr, s.ctOut)
	authStall += s.updateOutbound(lineAddr, rep)
	return dramW + busW + extra + authStall, extra
}

// updateOutbound runs the verifier's write-update for the line just
// written to DRAM (sitting in ctOut), returning its cycle cost.
func (s *SoC) updateOutbound(lineAddr uint64, rep *Report) uint64 {
	if s.verifier == nil {
		return 0
	}
	us := s.verifier.UpdateWrite(lineAddr, s.ctOut)
	rep.AuthStalls += us
	s.rc.Emit(rec.KindRetag, lineAddr, 0, 0, us)
	return us
}

// Run consumes src to completion and reports the cycle accounting. The
// source is rewound first (Run measures whole workloads), and the hot
// loop performs zero heap allocations per reference — trace length is
// bounded by time, not memory. Live metrics are published every
// publishEvery references and at the end of the run.
//
//repro:hotpath
func (s *SoC) Run(src trace.RefSource) Report {
	src.Reset()
	rep := Report{EngineName: s.engine.Name(), Workload: src.Label()}
	s.tally = tally{rep: rep, l1: s.cache.Stats()}
	if s.l2 != nil {
		s.tally.l2 = s.l2.Stats()
	}
	hit := uint64(s.cfg.CacheHitCycles)
	perAccess := s.engine.PerAccessCycles()

	for {
		ref, ok := src.Next()
		if !ok {
			break
		}
		// Stamp before the intruder strikes so injection events carry
		// the reference index the attack schedule accounts under.
		s.rc.Stamp(rep.Cycles, rep.Refs)
		if s.cfg.Intruder != nil {
			s.cfg.Intruder.Strike(rep.Refs, ref, s)
		}
		s.curRef = rep.Refs
		rep.Refs++
		if ref.Kind == trace.Fetch {
			rep.Instructions++
		}
		rep.Cycles += uint64(ref.Compute)

		isStore := ref.Kind == trace.Store
		res, events := s.hier.Access(ref.Addr, isStore)
		rep.Cycles += hit + perAccess

		for _, ev := range events {
			s.processEvent(ev, &rep)
		}
		if res.Through {
			hitSlot := -1
			if res.Hit {
				hitSlot = res.Slot
			}
			s.rc.Stamp(rep.Cycles, s.curRef)
			c, e := s.writeThrough(ref.Addr, int(ref.Size), hitSlot, &rep)
			s.rc.Emit(rec.KindWriteThrough, ref.Addr&^uint64(s.cfg.Cache.LineSize-1), 0, 0, c)
			rep.Cycles += c
			rep.StallCycles += c
			rep.EngineStalls += e
		}
		if rep.Refs%publishEvery == 0 {
			s.publish(&rep)
		}
	}

	if !s.cfg.SkipFinalFlush {
		s.flushing = true
		for _, ev := range s.hier.Flush() {
			s.processEvent(ev, &rep)
			rep.FlushedLines++
		}
		s.flushing = false
	}
	s.publish(&rep)

	rep.Cache = s.cache.Stats()
	if s.l2 != nil {
		rep.L2 = s.l2.Stats()
	}
	rep.BusBytes = s.bus.BytesMoved
	rep.BusTxns = s.bus.Transactions
	return rep
}

// Compare runs the same workload on a baseline (Null engine) system and
// a system with eng installed, both built from cfg, and returns both
// reports. This is the canonical overhead measurement every experiment
// uses: identical geometry, identical reference stream (src is rewound
// between runs — use a Seed-configured source, not an explicit Rand),
// engine as the only delta.
func Compare(cfg Config, eng edu.Engine, src trace.RefSource) (base, with Report, err error) {
	if r, ok := src.(interface{ Replayable() bool }); ok && !r.Replayable() {
		return base, with, fmt.Errorf(
			"soc: Compare replays %q between runs, but the source is single-pass (built from an explicit Config.Rand); configure trace.Config.Seed instead",
			src.Label())
	}
	bcfg := cfg
	bcfg.Engine = edu.Null{}
	bcfg.Verifier = nil
	bcfg.Intruder = nil
	bcfg.OnViolation = nil
	bsoc, err := New(bcfg)
	if err != nil {
		return base, with, err
	}
	base = bsoc.Run(src)

	ecfg := cfg
	ecfg.Engine = eng
	esoc, err := New(ecfg)
	if err != nil {
		return base, with, err
	}
	with = esoc.Run(src)
	return base, with, nil
}
