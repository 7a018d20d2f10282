// The active-adversary campaign axis: a deterministic, seed-derived
// attack schedule injectable into streaming simulation runs. Where the
// Spoof/Splice/Replay helpers in tamper.go probe a quiescent system
// once, a Schedule strikes repeatedly WHILE the workload runs, and the
// interesting observables become statistical: what fraction of tampers
// is ever detected, and how many references pass between injection and
// the fail-stop event (detection latency — bounded only by cache
// residency, which is why the survey-era literature measures it).

//repro:deterministic
package attack

import (
	"bytes"
	"math/rand"

	"repro/internal/obs/rec"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// TamperKind names one active-attack form.
type TamperKind int

const (
	// KindSpoof overwrites a line's ciphertext with attacker bytes.
	KindSpoof TamperKind = iota
	// KindSplice relocates valid ciphertext (and its tag) to another
	// address.
	KindSplice
	// KindReplay restores a stale ciphertext+tag snapshot at its own
	// address after the line has been legitimately rewritten.
	KindReplay
)

// String names the kind.
func (k TamperKind) String() string {
	switch k {
	case KindSplice:
		return "splice"
	case KindReplay:
		return "replay"
	default:
		return "spoof"
	}
}

// AllKinds is the strike rotation: a schedule cycles through it in
// order, one kind per strike slot.
var AllKinds = []TamperKind{KindSpoof, KindSplice, KindReplay}

// ScheduleConfig parameterizes an attack schedule.
type ScheduleConfig struct {
	// Seed derives every attacker decision; equal seeds strike
	// identically, which is what keeps -jobs N sweeps byte-identical.
	Seed int64
	// PerTenK is the strike rate in tampers per 10,000 references;
	// 0 disables the schedule.
	PerTenK float64
	// LineBytes is the target granule; default 32.
	LineBytes int
}

// Schedule is one active adversary. It implements soc.Intruder: Strike
// tampers, and OnViolation credits the detections the SoC reports.
// The adversary is realistic about what it can see: it targets only
// lines it has watched cross the external bus (a probe attacker knows
// the live address stream), which also means its targets are enrolled
// and plausibly re-read.
type Schedule struct {
	cfg      ScheduleConfig
	rng      *rand.Rand
	interval float64
	nextAt   float64
	kindIdx  int

	codeSeen, dataSeen reservoir

	// pending maps tampered line -> its injection record, awaiting a
	// violation at that line. Bounded by the distinct lines tampered.
	pending map[uint64]pendingTamper

	// Replay works in two phases: snapshot a data line, then restore it
	// once legitimate writeback traffic has made the snapshot stale.
	armed      bool
	armedAddr  uint64
	snapCT     []byte
	snapTag    [8]byte
	snapHadTag bool

	junk, ctBuf []byte

	// Injected counts strikes that actually mutated external state;
	// Detected those later flagged by the verifier.
	Injected, Detected uint64
	// ByKind counts injections per tamper kind (spoof, splice, replay).
	ByKind [3]uint64
	// DetectedByKind counts detections per kind.
	DetectedByKind [3]uint64
	latencySum     uint64
	// MaxLatency is the worst observed detection latency in references.
	MaxLatency uint64

	// rc is the flight recorder (nil = no-op): inject emits one
	// KindStrike event per tamper that actually mutated external state,
	// mirroring Injected exactly, which is what lets cmd/tracelab
	// rebuild the per-strike latency accounting from the stream alone.
	rc *rec.Recorder
}

// pendingTamper records one injected, not-yet-detected tamper.
type pendingTamper struct {
	ref  uint64
	kind TamperKind
}

// NewSchedule builds a schedule; a zero rate yields a schedule that
// never strikes (harmless to install).
func NewSchedule(cfg ScheduleConfig) *Schedule {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 32
	}
	sc := &Schedule{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make(map[uint64]pendingTamper),
		junk:    make([]byte, cfg.LineBytes),
		snapCT:  make([]byte, cfg.LineBytes),
		ctBuf:   make([]byte, cfg.LineBytes),
	}
	if cfg.PerTenK > 0 {
		sc.interval = 10000 / cfg.PerTenK
		sc.nextAt = sc.interval // a warmup window before the first strike
	}
	return sc
}

// Strike implements soc.Intruder: observe the reference stream, and
// when a strike is due, tamper with external state.
func (sc *Schedule) Strike(refIndex uint64, ref trace.Ref, s *soc.SoC) {
	la := ref.Addr &^ uint64(sc.cfg.LineBytes-1)
	if ref.Kind == trace.Fetch {
		sc.codeSeen.put(la)
	} else {
		sc.dataSeen.put(la)
	}
	if sc.interval == 0 || float64(refIndex) < sc.nextAt {
		return
	}
	sc.nextAt += sc.interval
	kind := AllKinds[sc.kindIdx%len(AllKinds)]
	sc.kindIdx++

	switch kind {
	case KindSpoof:
		addr, ok := sc.pickTarget(s)
		if !ok {
			return
		}
		sc.rng.Read(sc.junk)
		s.DRAM().Write(addr, sc.junk)
		sc.inject(addr, refIndex, kind)

	case KindSplice:
		src, ok1 := sc.codeSeen.pick(sc.rng)
		if !ok1 {
			src, ok1 = sc.dataSeen.pick(sc.rng)
		}
		dst, ok2 := sc.pickTarget(s)
		if !ok1 || !ok2 || src == dst {
			return
		}
		s.DRAM().ReadInto(src, sc.ctBuf)
		s.DRAM().Write(dst, sc.ctBuf)
		// A thorough attacker relocates the external tag too.
		if ts := tamperTagStore(s); ts != nil {
			if tag, had := ts.TagAt(src); had {
				ts.TamperTag(dst, tag)
			}
		}
		sc.inject(dst, refIndex, kind)

	case KindReplay:
		if !sc.armed {
			addr, ok := sc.dataSeen.pick(sc.rng)
			if !ok {
				return
			}
			if _, tampered := sc.pending[addr]; tampered {
				return // its external state is already attacker-made, not a legit snapshot
			}
			s.DRAM().ReadInto(addr, sc.snapCT)
			sc.snapHadTag = false
			if ts := tamperTagStore(s); ts != nil {
				sc.snapTag, sc.snapHadTag = ts.TagAt(addr)
			}
			sc.armedAddr, sc.armed = addr, true
			return // surveillance, not yet an injection
		}
		// Restore only once the snapshot has gone stale — replaying the
		// current contents is a no-op — and only while the line is off-
		// chip, or the next writeback would paper over the rollback.
		if _, tampered := sc.pending[sc.armedAddr]; tampered {
			// Another strike tampered this line after we armed: the
			// "changed DRAM" we would see is that tamper, and restoring
			// our (still-current, legitimate) snapshot would silently
			// repair it. Abandon this snapshot.
			sc.armed = false
			return
		}
		if s.Resident(sc.armedAddr) {
			return // stay armed
		}
		s.DRAM().ReadInto(sc.armedAddr, sc.ctBuf)
		if bytes.Equal(sc.ctBuf, sc.snapCT) {
			return // still fresh; stay armed
		}
		s.DRAM().Write(sc.armedAddr, sc.snapCT)
		if ts := tamperTagStore(s); ts != nil && sc.snapHadTag {
			ts.TamperTag(sc.armedAddr, sc.snapTag)
		}
		sc.inject(sc.armedAddr, refIndex, kind)
		sc.armed = false
	}
}

// pickTarget chooses the line a competent adversary would hit: one the
// CPU is likely to touch again (hot data first, code as fallback) but
// does not currently hold on-chip — a probe attacker sees fills and
// evictions, so it knows tampering a resident line is wasted effort
// (either served from cache untested, or overwritten by the writeback).
func (sc *Schedule) pickTarget(s *soc.SoC) (uint64, bool) {
	for tries := 0; tries < 16; tries++ {
		addr, ok := sc.dataSeen.pick(sc.rng)
		if !ok {
			addr, ok = sc.codeSeen.pick(sc.rng)
		}
		if !ok {
			return 0, false
		}
		if _, tampered := sc.pending[addr]; tampered {
			continue // already owned; re-tampering adds nothing
		}
		if !s.Resident(addr) {
			return addr, true
		}
	}
	// Everything hot is on-chip right now: wait for the next slot
	// rather than waste a tamper a writeback will erase.
	return 0, false
}

// SetRecorder installs the flight recorder (nil to disable). The SoC
// stamps the recorder before every Strike call, so injection events
// carry the right reference index without the schedule owning a clock.
func (sc *Schedule) SetRecorder(r *rec.Recorder) {
	if sc != nil {
		sc.rc = r
	}
}

func (sc *Schedule) inject(addr, refIndex uint64, kind TamperKind) {
	if _, tampered := sc.pending[addr]; tampered {
		// A second tamper of a still-undetected line is not a new
		// attack opportunity; keep the original injection time.
		return
	}
	sc.Injected++
	sc.ByKind[kind]++
	sc.pending[addr] = pendingTamper{ref: refIndex, kind: kind} //repro:allow per-strike bookkeeping; strikes are sparse events, never on the per-reference fast path
	sc.rc.Emit(rec.KindStrike, addr, 0, 0, uint64(kind))
}

// OnViolation implements soc.Intruder: credit a detected strike and
// record its latency in references.
func (sc *Schedule) OnViolation(refIndex, lineAddr uint64) {
	p, ok := sc.pending[lineAddr]
	if !ok {
		return
	}
	delete(sc.pending, lineAddr)
	sc.Detected++
	sc.DetectedByKind[p.kind]++
	lat := refIndex - p.ref
	sc.latencySum += lat
	if lat > sc.MaxLatency {
		sc.MaxLatency = lat
	}
}

// DetectionRate is detected / injected (0 with no injections).
func (sc *Schedule) DetectionRate() float64 {
	if sc.Injected == 0 {
		return 0
	}
	return float64(sc.Detected) / float64(sc.Injected)
}

// MeanLatency is the mean detection latency in references over the
// detected tampers (0 if none was detected).
func (sc *Schedule) MeanLatency() float64 {
	if sc.Detected == 0 {
		return 0
	}
	return float64(sc.latencySum) / float64(sc.Detected)
}

// tamperTagStore finds the external tag memory the adversary can
// write: the verifier's, if it keeps one (the tree and flat
// authenticators do).
func tamperTagStore(s *soc.SoC) tagStore {
	ts, _ := s.Verifier().(tagStore)
	return ts
}

// reservoir is a fixed ring of recently observed line addresses — the
// attacker's notebook of live bus traffic. Fixed-size and index-based:
// observing a reference never allocates.
type reservoir struct {
	buf  [1024]uint64
	n    int // valid entries
	next int // ring cursor
}

func (r *reservoir) put(addr uint64) {
	r.buf[r.next] = addr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// pick draws from the middle-aged band of the observation ring. The
// youngest entries are still cache-resident (tampering them is wasted:
// served on-chip, or the writeback erases the tamper); the oldest have
// likely rotated out of the workload's live set and will never be
// re-read. The band between — recently evicted but still live — is
// where a tamper both persists and gets re-fetched.
func (r *reservoir) pick(rng *rand.Rand) (uint64, bool) {
	if r.n == 0 {
		return 0, false
	}
	lo, hi := 64, 1024 // how far back in observations to look
	if hi > r.n {
		hi = r.n
	}
	if lo >= hi {
		lo = 0
	}
	back := 1 + lo + rng.Intn(hi-lo)
	return r.buf[(r.next-back+len(r.buf))%len(r.buf)], true
}
