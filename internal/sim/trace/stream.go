// Streaming reference sources: every workload generator is a
// resumable state machine over a seeded RNG, so a workload of any
// length needs no more memory than its generator state. Drain
// materializes one when a caller needs the slice.
//
//repro:deterministic
package trace

import "math/rand"

// RefSource is an ordered stream of memory references — the interface
// the SoC simulator consumes. A source generates references on demand,
// so a billion-reference workload needs no more memory than its
// generator state.
//
// Sources are single-goroutine objects. Reset rewinds a source to its
// first reference (a generator reseeds its RNG from Config.Seed), so
// soc.Compare replays the same stream on the baseline and the engine.
type RefSource interface {
	// Label names the workload in reports.
	Label() string
	// Next returns the next reference, or ok=false when the stream is
	// exhausted.
	Next() (ref Ref, ok bool)
	// Reset rewinds the source to the beginning of its stream.
	Reset()
}

// Sources is the registry of named workloads; the experiments, the
// campaign sweeps and the CLIs draw from it, so trace length is bounded
// by hardware speed, not RAM. core.WorkloadProfile holds each name's
// standard knob settings.
var Sources = map[string]func(Config) RefSource{
	"sequential":    SequentialSource,
	"code-only":     CodeOnlySource,
	"streaming":     StreamingSource,
	"pointer-chase": PointerChaseSource,
	"matrix-like":   MatrixLikeSource,
	"firmware":      FirmwareSource,
}

// Drain materializes a source into a Trace (small workloads, tests).
func Drain(src RefSource) *Trace {
	t := &Trace{Name: src.Label()}
	for {
		r, ok := src.Next()
		if !ok {
			return t
		}
		t.Refs = append(t.Refs, r)
	}
}

// streamBase carries the state every source shares: the seeded RNG
// and the emitted-reference count that bounds the stream.
type streamBase struct {
	name    string
	seed    int64
	started bool
	rng     *rand.Rand
	src     rand.Source // rng's source, reseeded in place on Reset
	emitted int
	limit   int
}

func newStreamBase(name string, cfg *Config) streamBase {
	src := rand.NewSource(cfg.Seed)
	return streamBase{name: name, seed: cfg.Seed, limit: cfg.Refs, src: src, rng: rand.New(src)}
}

// Label implements RefSource.
func (b *streamBase) Label() string { return b.name }

// resetBase rewinds the shared state; it reports whether the caller
// must also rewind its own generator state (false when the source was
// never started, so there is nothing to rewind). Reseeding the retained
// rand.Source keeps Reset allocation-free.
func (b *streamBase) resetBase() bool {
	if !b.started {
		return false
	}
	b.src.Seed(b.seed)
	b.started = false
	b.emitted = 0
	return true
}

// seqSource streams the sequential, code-only and firmware workloads.
type seqSource struct {
	streamBase
	cfg     Config
	pc      uint64
	recent  []uint64
	pend    Ref
	hasPend bool
}

// SequentialSource streams straight-line code with occasional jumps
// and a configurable mix of data accesses: the general-purpose
// workload.
func SequentialSource(cfg Config) RefSource {
	cfg.fill()
	return &seqSource{
		streamBase: newStreamBase("sequential", &cfg),
		cfg:        cfg,
		pc:         cfg.CodeBase,
		recent:     make([]uint64, 0, 64),
	}
}

// CodeOnlySource streams pure instruction fetches (Sequential with the
// data knobs forced to zero): the static-code workload Gilmont's engine
// targets — "this work only addresses static code ciphering".
func CodeOnlySource(cfg Config) RefSource {
	cfg.LoadFraction = 0
	cfg.WriteFraction = 0
	s := SequentialSource(cfg).(*seqSource)
	s.name = "code-only"
	return s
}

// FirmwareSource returns a microcontroller-class Sequential stream: a
// 16 KiB code loop over a 32 KiB hot data set — the footprint of the
// survey's secured embedded parts, and the regime where active-attack
// detection latency is measurable (tampered lines actually cycle back
// through the cache; see internal/attack.Schedule).
func FirmwareSource(cfg Config) RefSource {
	cfg.CodeBase, cfg.CodeSize = 0, 16<<10
	cfg.DataBase, cfg.DataSize = 0x4000_0000, 32<<10
	s := SequentialSource(cfg).(*seqSource)
	s.name = "firmware"
	return s
}

// Next implements RefSource.
func (s *seqSource) Next() (Ref, bool) {
	if s.hasPend {
		s.hasPend = false
		return s.pend, true
	}
	if s.emitted >= s.limit {
		return Ref{}, false
	}
	s.started = true
	r := Ref{Kind: Fetch, Addr: s.pc, Size: 4, Compute: computeGap(s.rng)}
	if s.rng.Float64() < s.cfg.JumpRate {
		s.pc = s.cfg.CodeBase + uint64(s.rng.Int63n(int64(s.cfg.CodeSize)))&^3
	} else {
		s.pc += 4
		if s.pc >= s.cfg.CodeBase+s.cfg.CodeSize {
			s.pc = s.cfg.CodeBase
		}
	}
	s.emitted++
	if s.emitted < s.limit && s.rng.Float64() < s.cfg.LoadFraction {
		var addr uint64
		if len(s.recent) > 0 && s.rng.Float64() < s.cfg.Locality {
			addr = s.recent[s.rng.Intn(len(s.recent))]
		} else {
			addr = s.cfg.DataBase + uint64(s.rng.Int63n(int64(s.cfg.DataSize)))&^3
			if len(s.recent) < cap(s.recent) {
				s.recent = append(s.recent, addr)
			} else {
				s.recent[s.rng.Intn(len(s.recent))] = addr
			}
		}
		k := Load
		if s.rng.Float64() < s.cfg.WriteFraction {
			k = Store
		}
		size := uint8(4)
		if s.rng.Float64() < 0.25 {
			size = 1 // byte stores are what trigger worst-case RMW
		}
		s.pend = Ref{Kind: k, Addr: addr, Size: size, Compute: computeGap(s.rng)}
		s.hasPend = true
		s.emitted++
	}
	return r, true
}

// Reset implements RefSource.
func (s *seqSource) Reset() {
	if !s.resetBase() {
		return
	}
	s.pc = s.cfg.CodeBase
	s.recent = s.recent[:0]
	s.hasPend = false
}

// strideSource streams the streaming workload.
type strideSource struct {
	streamBase
	cfg     Config
	pc      uint64
	addr    uint64
	pend    Ref
	hasPend bool
}

// StreamingSource streams long unit-stride data scans (memcpy-like)
// with sparse control: the friendliest case for prefetch and pipelined
// deciphering.
func StreamingSource(cfg Config) RefSource {
	cfg.fill()
	return &strideSource{
		streamBase: newStreamBase("streaming", &cfg),
		cfg:        cfg,
		pc:         cfg.CodeBase,
		addr:       cfg.DataBase,
	}
}

// Next implements RefSource.
func (s *strideSource) Next() (Ref, bool) {
	if s.hasPend {
		s.hasPend = false
		return s.pend, true
	}
	if s.emitted >= s.limit {
		return Ref{}, false
	}
	s.started = true
	r := Ref{Kind: Fetch, Addr: s.pc, Size: 4, Compute: computeGap(s.rng)}
	s.pc += 4
	if s.pc >= s.cfg.CodeBase+4096 { // a tight copy loop
		s.pc = s.cfg.CodeBase
	}
	s.emitted++
	if s.emitted < s.limit {
		k := Load
		if s.rng.Float64() < s.cfg.WriteFraction {
			k = Store
		}
		s.pend = Ref{Kind: k, Addr: s.addr, Size: 4, Compute: 0}
		s.hasPend = true
		s.emitted++
		s.addr += 4
		if s.addr >= s.cfg.DataBase+s.cfg.DataSize {
			s.addr = s.cfg.DataBase
		}
	}
	return r, true
}

// Reset implements RefSource.
func (s *strideSource) Reset() {
	if !s.resetBase() {
		return
	}
	s.pc = s.cfg.CodeBase
	s.addr = s.cfg.DataBase
	s.hasPend = false
}

// chaseSource streams the pointer-chase workload.
type chaseSource struct {
	streamBase
	cfg     Config
	pc      uint64
	pend    Ref
	hasPend bool
}

// PointerChaseSource streams dependent random loads (linked-list
// traversal): the workload with no latency-hiding opportunity, worst
// case for any deciphering latency on the miss path.
func PointerChaseSource(cfg Config) RefSource {
	cfg.fill()
	return &chaseSource{
		streamBase: newStreamBase("pointer-chase", &cfg),
		cfg:        cfg,
		pc:         cfg.CodeBase,
	}
}

// Next implements RefSource.
func (s *chaseSource) Next() (Ref, bool) {
	if s.hasPend {
		s.hasPend = false
		return s.pend, true
	}
	if s.emitted >= s.limit {
		return Ref{}, false
	}
	s.started = true
	r := Ref{Kind: Fetch, Addr: s.pc, Size: 4, Compute: computeGap(s.rng)}
	s.pc += 4
	if s.pc >= s.cfg.CodeBase+256 {
		s.pc = s.cfg.CodeBase
	}
	s.emitted++
	if s.emitted < s.limit {
		addr := s.cfg.DataBase + uint64(s.rng.Int63n(int64(s.cfg.DataSize)))&^7
		s.pend = Ref{Kind: Load, Addr: addr, Size: 8, Compute: 0}
		s.hasPend = true
		s.emitted++
	}
	return r, true
}

// Reset implements RefSource.
func (s *chaseSource) Reset() {
	if !s.resetBase() {
		return
	}
	s.pc = s.cfg.CodeBase
	s.hasPend = false
}

// matrixSource streams the matrix-like workload.
type matrixSource struct {
	streamBase
	cfg      Config
	pc       uint64
	row, col int
	pend     [3]Ref
	pendN    int
	pendI    int
}

// MatrixLikeSource streams blocked row/column sweeps over a square
// matrix region: moderate locality, balanced loads and stores — the
// numeric kernel stand-in.
func MatrixLikeSource(cfg Config) RefSource {
	cfg.fill()
	return &matrixSource{
		streamBase: newStreamBase("matrix-like", &cfg),
		cfg:        cfg,
		pc:         cfg.CodeBase,
	}
}

// Next implements RefSource.
func (s *matrixSource) Next() (Ref, bool) {
	if s.pendI < s.pendN {
		r := s.pend[s.pendI]
		s.pendI++
		return r, true
	}
	if s.emitted >= s.limit {
		return Ref{}, false
	}
	s.started = true
	const dim = 256 // 256x256 of 8-byte elements
	r := Ref{Kind: Fetch, Addr: s.pc, Size: 4, Compute: computeGap(s.rng)}
	s.pc += 4
	if s.pc >= s.cfg.CodeBase+2048 {
		s.pc = s.cfg.CodeBase
	}
	s.emitted++
	if s.emitted >= s.limit {
		return r, true
	}
	// A[row][col] load, B[col][row] load, C[row][col] store pattern.
	a := s.cfg.DataBase + uint64(s.row*dim+s.col)*8
	b := s.cfg.DataBase + uint64(dim*dim)*8 + uint64(s.col*dim+s.row)*8
	cAddr := s.cfg.DataBase + 2*uint64(dim*dim)*8 + uint64(s.row*dim+s.col)*8
	s.pendI, s.pendN = 0, 0
	s.pend[s.pendN] = Ref{Kind: Load, Addr: a, Size: 8}
	s.pendN++
	s.emitted++
	if s.emitted < s.limit {
		s.pend[s.pendN] = Ref{Kind: Load, Addr: b, Size: 8}
		s.pendN++
		s.emitted++
	}
	if s.emitted < s.limit {
		s.pend[s.pendN] = Ref{Kind: Store, Addr: cAddr, Size: 8}
		s.pendN++
		s.emitted++
	}
	s.col++
	if s.col == dim {
		s.col = 0
		s.row = (s.row + 1) % dim
	}
	return r, true
}

// Reset implements RefSource.
func (s *matrixSource) Reset() {
	if !s.resetBase() {
		return
	}
	s.pc = s.cfg.CodeBase
	s.row, s.col = 0, 0
	s.pendI, s.pendN = 0, 0
}

// multiSource streams the multi-process workload: per-process Sequential
// substreams advanced lazily a quantum at a time, so the whole workload
// is O(Processes) state instead of O(Processes x Refs) materialized slices.
type multiSource struct {
	cfg     MultiProcessConfig
	started bool
	subs    []*seqSource
	p       int // current process
	inQuant int // refs taken from the current process this quantum
	emitted int
}

// MultiProcessSource streams the round-robin multitasking workload
// MultiProcessConfig describes.
func MultiProcessSource(cfg MultiProcessConfig) RefSource {
	cfg.fillMP()
	cfg.Config.fill()
	m := &multiSource{cfg: cfg}
	m.subs = make([]*seqSource, Processes)
	for p := range Processes {
		m.subs[p] = m.subSource(p)
	}
	return m
}

// subSource builds process p's confined Sequential substream, with its
// own seed derived from the workload's.
func (m *multiSource) subSource(p int) *seqSource {
	sub := m.cfg.Config
	base, _ := ProcessRegion(p)
	sub.CodeBase, sub.CodeSize = base, regionBytes
	sub.DataBase, sub.DataSize = base+regionBytes, regionBytes
	sub.Seed = m.cfg.Seed + int64(p)*7919
	sub.Refs = m.cfg.Refs // oversize; sliced per quantum
	return SequentialSource(sub).(*seqSource)
}

// Label implements RefSource.
func (m *multiSource) Label() string { return "multi-process" }

// Next implements RefSource.
func (m *multiSource) Next() (Ref, bool) {
	if m.emitted >= m.cfg.Refs {
		return Ref{}, false
	}
	m.started = true
	for rotations := 0; rotations <= len(m.subs); rotations++ {
		if m.inQuant >= m.cfg.Quantum {
			m.p = (m.p + 1) % Processes
			m.inQuant = 0
		}
		r, ok := m.subs[m.p].Next()
		if !ok {
			// Substream exhausted mid-quantum: the next process starts a
			// fresh quantum.
			m.p = (m.p + 1) % Processes
			m.inQuant = 0
			continue
		}
		m.inQuant++
		m.emitted++
		return r, true
	}
	return Ref{}, false // all substreams dry (cannot happen: Processes*Refs >= Refs)
}

// Reset implements RefSource.
func (m *multiSource) Reset() {
	if !m.started {
		return
	}
	for p := range m.subs {
		m.subs[p].Reset()
	}
	m.p, m.inQuant, m.emitted = 0, 0, 0
	m.started = false
}
