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

// The core-side latencies, in CPU cycles, are fixed model parameters:
// every overhead is the ratio of an engine run to a plaintext run on the
// same geometry (DESIGN.md §4).
const (
	// l1HitCycles is the L1 hit latency.
	l1HitCycles = 1
	// l2HitCycles is the L2 access latency, charged on every line
	// transfer between L1 and L2: a 2005-class on-chip SRAM L2, several
	// core cycles slower than the L1.
	l2HitCycles = 6
	// violationCycles is the security-exception cost charged per
	// detected verification failure (trap entry and the fail-stop
	// decision path) before the line is zeroed.
	violationCycles = 100
)

// Config assembles a system.
type Config struct {
	Cache cache.Config
	// L2 is an optional second-level cache between the L1 and DRAM
	// (zero value = single-level system). Its line size must equal the
	// L1's — a line is the unit moved between levels — and both levels
	// must be write-back (write-through through a hierarchy is not
	// modeled).
	L2 cache.Config
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
	// Engine is the bus-encryption unit; nil means edu.Null{}.
	Engine edu.Engine
	// Verifier is the memory authenticator (sim/authtree, or any
	// edu.Verifier); nil means no integrity checking. It is driven on
	// the same traffic as the engine — whatever crosses the guarded
	// boundary — but independently of it, so any confidentiality engine
	// composes with any authenticator.
	Verifier edu.Verifier
	// Intruder, when non-nil, is invoked before every reference with
	// the running reference index and told of every detected tamper:
	// the active adversary tampering with external state mid-run
	// (internal/attack.Schedule).
	Intruder Intruder
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
// timing-bearing paths. OnViolation observes each detected tamper: the
// reference index at which verification failed and the line address,
// from which the attack schedule measures detection latency.
type Intruder interface {
	Strike(refIndex uint64, ref trace.Ref, s *SoC)
	OnViolation(refIndex, lineAddr uint64)
}

// DefaultConfig is the reference 2005-class embedded system used across
// the experiments: 16 KiB 4-way cache with 32-byte lines, a 32-bit bus
// at half the core clock, and DefaultConfig DRAM.
func DefaultConfig() Config {
	return Config{
		Cache: cache.Config{Size: 16 << 10, LineSize: 32, Ways: 4, WriteMode: cache.WriteBack},
		Bus:   bus.Config{WidthBytes: 4, ClockDivider: 2},
		DRAM:  dram.DefaultConfig(),
	}
}

// DefaultL2Config returns the standard L2 geometry for a given capacity:
// 8-way write-back with the reference 32-byte lines — the shape the
// campaign's -l2 axis and E22 sweep.
func DefaultL2Config(size int) cache.Config {
	return cache.Config{Size: size, LineSize: 32, Ways: 8, WriteMode: cache.WriteBack}
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
	if cfg.Cache.LineSize%eng.BlockBytes() != 0 {
		return nil, fmt.Errorf("soc: line size %d not a multiple of engine granule %d",
			cfg.Cache.LineSize, eng.BlockBytes())
	}

	var l2 *cache.Cache
	if cfg.L2.Size != 0 {
		if l2, err = cache.New(cfg.L2); err != nil {
			return nil, err
		}
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
		inner: inner, placement: placement,
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

// slotData returns the shadow data for a cache slot at a level.
func (s *SoC) slotData(level, slot int) []byte {
	ls := s.cfg.Cache.LineSize
	return s.shadows[level][slot*ls : (slot+1)*ls]
}

// Bus exposes the bus for probe attachment.
func (s *SoC) Bus() *bus.Bus { return s.bus }

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
		n := copy(s.ptBuf, data[off:])
		clear(s.ptBuf[n:]) // a short last line is zero-padded
		s.engine.EncryptLine(addr+uint64(off), s.ctOut, s.ptBuf)
		s.dram.Write(addr+uint64(off), s.ctOut)
		if s.verifier != nil {
			// Enrollment: the image install is the boot-time write that
			// brings each line under authentication (no timing — this is
			// the survey's step 6, outside the measured run).
			s.verifier.UpdateWrite(addr+uint64(off), s.ctOut)
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
	out := make([]byte, end-start)
	for a := start; a < end; a += uint64(ls) {
		s.dram.ReadInto(a, s.ctIn)
		pt := out[a-start:][:ls]
		s.engine.DecryptLine(a, pt, s.ctIn)
		if s.verifier != nil {
			if _, ok := s.verifier.VerifyRead(a, s.ctIn); !ok {
				clear(pt) // fail-stop: the CPU never sees tampered data
			}
		}
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

// processEvent costs one hierarchy line transfer and moves its data.
// Two independent facts decide a transfer. The move is DRAM plus the
// bus at the chip boundary (no peer slot), one L2 access between L1
// and L2. The transfer is guarded when the engine sits at its boundary:
// it then runs the engine and the verifier, while an unguarded one
// moves its bytes unchanged — raw ciphertext at the chip under an inner
// placement, plaintext between L1 and L2 under an outer one.
func (s *SoC) processEvent(ev cache.Event, rep *Report) {
	// Stamp the transfer's start time: every event the transfer causes
	// (EDU batches, verifications, tree walks, traps) shares it, and
	// the closing KindFill/KindWriteback record carries the total cost.
	s.rc.Stamp(rep.Cycles, s.curRef)
	ls := s.cfg.Cache.LineSize
	chip := ev.PeerSlot < 0
	guarded := chip != s.inner
	// near is the line's slot at this level; far holds its bytes on the
	// other side of the boundary: the L2 slot, the ciphertext scratch of
	// a guarded chip crossing, or near itself for a raw chip move.
	near := s.slotData(ev.Level, ev.Slot)
	far := near
	eduFlags := uint8(0)
	switch {
	case !chip:
		far = s.slotData(ev.Level+1, ev.PeerSlot)
		eduFlags = rec.FlagInner
	case !guarded:
		// A raw chip move: the slot's bytes go as they are.
	case ev.Kind == cache.EvFill:
		far = s.ctIn
	default:
		far = s.ctOut
	}
	var c, e uint64
	if ev.Kind == cache.EvFill {
		c = l2HitCycles
		if chip {
			c = s.dram.AccessCycles(ev.Addr)
			s.dram.ReadInto(ev.Addr, far)
			c += s.bus.Transfer(bus.Read, ev.Addr, far[:s.transferSize(ev.Addr, ls)])
		}
		if guarded {
			auth := s.decipher(ev.Addr, near, far, eduFlags, rep)
			// The engine can overlap the move itself.
			e = s.engine.ReadExtraCycles(ev.Addr, ls, c)
			c += e + auth
		} else if !chip {
			copy(near, far)
		}
	} else {
		if guarded {
			s.encipher(ev.Addr, far, near, eduFlags, rep)
		} else if !chip {
			copy(far, near)
		}
		c = l2HitCycles
		if chip {
			c = s.dram.AccessCycles(ev.Addr)
			c += s.bus.Transfer(bus.Write, ev.Addr, far[:s.transferSize(ev.Addr, ls)])
			s.dram.Write(ev.Addr, far)
		}
		if guarded {
			e = s.engine.WriteExtraCycles(ev.Addr, ls)
			c += e + s.retag(ev.Addr, far, eduFlags, rep)
		}
	}
	if s.rc != nil {
		kind := rec.KindFill
		if ev.Kind != cache.EvFill {
			kind = rec.KindWriteback
		}
		flags := uint8(0)
		if chip {
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
	side := 0
	if chip {
		side = 1
	}
	s.tally.transfers[ev.Kind][side]++
	s.tally.cycles.Observe(c)
}

// decipher runs the engine on an inbound line, ciphertext ct to
// plaintext pt (flags carries FlagInner at the L1<->L2 boundary), then
// authenticates ct and applies the fail-stop response to pt on a
// detected tamper: zero the plaintext, charge the violation trap, count
// it, and tell the intruder. Returns the verifier-side cycles (0
// without a verifier).
func (s *SoC) decipher(lineAddr uint64, pt, ct []byte, flags uint8, rep *Report) uint64 {
	s.engine.DecryptLine(lineAddr, pt, ct)
	rep.EngineLines++
	s.rc.Emit(rec.KindDecipher, lineAddr, 0, flags, s.granules)
	if s.verifier == nil {
		return 0
	}
	stall, ok := s.verifier.VerifyRead(lineAddr, ct)
	rep.AuthStalls += stall
	if ok {
		s.rc.Emit(rec.KindVerify, lineAddr, 0, 0, stall)
	} else {
		s.rc.Emit(rec.KindVerify, lineAddr, 0, rec.FlagFail, stall)
		s.rc.Emit(rec.KindTrap, lineAddr, 0, 0, violationCycles)
		stall += violationCycles
		rep.AuthStalls += violationCycles
		rep.AuthViolations++
		clear(pt)
		if s.cfg.Intruder != nil {
			s.cfg.Intruder.OnViolation(s.curRef, lineAddr)
		}
	}
	return stall
}

// encipher is decipher's outbound mirror: plaintext pt to ciphertext ct.
func (s *SoC) encipher(lineAddr uint64, ct, pt []byte, flags uint8, rep *Report) {
	s.engine.EncryptLine(lineAddr, ct, pt)
	rep.EngineLines++
	s.rc.Emit(rec.KindEncipher, lineAddr, 0, flags, s.granules)
}

// retag runs the verifier's write-update (retag plus tree propagation)
// for the outbound ciphertext ct of the line at lineAddr, returning its
// cycle cost (0 without a verifier).
func (s *SoC) retag(lineAddr uint64, ct []byte, flags uint8, rep *Report) uint64 {
	if s.verifier == nil {
		return 0
	}
	us := s.verifier.UpdateWrite(lineAddr, ct)
	rep.AuthStalls += us
	s.rc.Emit(rec.KindRetag, lineAddr, 0, flags, us)
	return us
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
		// The recovered line comes from tamperable memory: verify it
		// before its plaintext feeds the rewrite.
		authStall = s.decipher(lineAddr, pt, s.ctIn, 0, rep)
	}
	s.encipher(lineAddr, s.ctOut, pt, 0, rep)

	blockAddr := addr &^ uint64(bb-1)
	gOff := int(blockAddr - lineAddr)
	n := bb
	var read, stall uint64
	if needRMW {
		rep.RMWEvents++
		// Read the enclosing granule; decipher, modify and re-cipher
		// ran line-wide above (the store's value is irrelevant to
		// timing); the granule is written back below.
		read = s.dram.AccessCycles(blockAddr)
		read += s.bus.Transfer(bus.Read, blockAddr, s.ctIn[gOff:gOff+bb])
		stall = s.engine.ReadExtraCycles(blockAddr, bb, read)
	} else {
		// Granule-aligned store: encrypt and write at least one
		// granule, clamped to the line (stores never straddle lines).
		n = min(max(size, bb), ls-gOff)
	}
	stall += s.engine.WriteExtraCycles(blockAddr, n)
	write := s.dram.AccessCycles(blockAddr)
	write += s.bus.Transfer(bus.Write, blockAddr, s.ctOut[gOff:gOff+n])
	s.dram.Write(lineAddr, s.ctOut)
	authStall += s.retag(lineAddr, s.ctOut, 0, rep)
	return read + write + stall + authStall, stall
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
	// The caches and the bus count over the SoC's whole life; a run
	// reports their growth from here, as it does its cycles and refs.
	l1At, bytesAt, txnsAt := s.cache.Stats(), s.bus.BytesMoved, s.bus.Transactions
	var l2At cache.Stats
	if s.l2 != nil {
		l2At = s.l2.Stats()
	}
	s.tally = tally{rep: rep, l1: l1At, l2: l2At}
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
		rep.Cycles += l1HitCycles + perAccess

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

	// Drain the dirty lines and fold their writeback traffic into the
	// report; a baseline run flushes too, keeping the overhead
	// comparison apples-to-apples.
	s.flushing = true
	for _, ev := range s.hier.Flush() {
		s.processEvent(ev, &rep)
		rep.FlushedLines++
	}
	s.flushing = false
	s.publish(&rep)

	rep.Cache = s.cache.Stats().Sub(l1At)
	if s.l2 != nil {
		rep.L2 = s.l2.Stats().Sub(l2At)
	}
	rep.BusBytes = s.bus.BytesMoved - bytesAt
	rep.BusTxns = s.bus.Transactions - txnsAt
	return rep
}

// Baseline is the plaintext reference system for cfg: its geometry
// (caches, bus, DRAM) with no engine, verifier, intruder, placement,
// metrics or recorder. Every overhead is a run of cfg over a run of
// cfg.Baseline() on the same references.
func (cfg Config) Baseline() Config {
	return Config{Cache: cfg.Cache, L2: cfg.L2, Bus: cfg.Bus, DRAM: cfg.DRAM}
}

// Baselines memoizes baseline reports by geometry and source. A source
// is keyed by identity: Run rewinds it and a seeded source replays the
// same references, so its baseline never changes. Make one with
// Baselines{}; it is not safe for concurrent use.
type Baselines map[baselineKey]Report

type baselineKey struct {
	cfg Config
	src trace.RefSource
}

// Compare runs src on cfg.Baseline() and on cfg with eng installed and
// returns both reports: the canonical overhead measurement, with the
// engine (and verifier, placement, intruder) as the only delta. The
// baseline is simulated on the first Compare of its (geometry, source)
// pair and reused after that.
func (b Baselines) Compare(cfg Config, eng edu.Engine, src trace.RefSource) (base, with Report, err error) {
	key := baselineKey{cfg.Baseline(), src}
	base, ok := b[key]
	if !ok {
		bsoc, err := New(key.cfg)
		if err != nil {
			return base, with, err
		}
		base = bsoc.Run(src)
		b[key] = base
	}

	cfg.Engine = eng
	esoc, err := New(cfg)
	if err != nil {
		return base, with, err
	}
	with = esoc.Run(src)
	return base, with, nil
}
