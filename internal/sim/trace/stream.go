// Streaming reference sources: every workload generator is a
// resumable state machine over a seeded RNG, so a workload of any
// length needs no more memory than its generator state. Drain
// materializes one when a caller needs the slice.
//
//repro:deterministic
package trace

import (
	"math/rand"

	"repro/internal/sim/addrmap"
)

// RefSource is an ordered stream of memory references — the interface
// the SoC simulator consumes. A source generates references on demand,
// so a billion-reference workload needs no more memory than its
// generator state.
//
// Sources are single-goroutine objects. Reset rewinds a source to its
// first reference (a generator reseeds its RNG from Config.Seed), so
// soc.Baselines.Compare replays the same stream on the baseline and on
// every engine compared with it.
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

// gen is every seeded workload: the shared generator state (filled
// Config, seeded RNG, emitted count, pending-reference queue) plus one
// step, which queues a fetch and the data references that follow it.
// Next cuts a step's output at Config.Refs; the draws of a cut step
// come after the stream's last reference, so they never show.
type gen struct {
	name    string
	cfg     Config
	step    func(*gen)
	rng     *rand.Rand
	src     rand.Source // rng's source, reseeded in place on Reset
	emitted int
	q       [4]Ref // one step: the fetch and up to three data references
	qi, qn  int
	// Workload state, rewound by Reset.
	pc       uint64
	addr     uint64   // streaming's data cursor
	row, col int      // matrix-like's element
	recent   []uint64 // sequential's recently touched data addresses
}

func newGen(name string, cfg Config, step func(*gen)) *gen {
	cfg.fill()
	src := rand.NewSource(cfg.Seed)
	g := &gen{name: name, cfg: cfg, step: step, src: src, rng: rand.New(src)}
	g.recent = make([]uint64, 0, 64)
	g.rewind()
	return g
}

// Label implements RefSource.
func (g *gen) Label() string { return g.name }

// Next implements RefSource.
func (g *gen) Next() (Ref, bool) {
	if g.emitted >= g.cfg.Refs {
		return Ref{}, false
	}
	if g.qi == g.qn {
		g.qi, g.qn = 0, 0
		g.step(g)
	}
	r := g.q[g.qi]
	g.qi++
	g.emitted++
	return r, true
}

// Reset implements RefSource. A source that has emitted nothing has
// nothing to rewind; reseeding the retained rand.Source keeps Reset
// allocation-free.
func (g *gen) Reset() {
	if g.emitted == 0 {
		return
	}
	g.src.Seed(g.cfg.Seed)
	g.rewind()
}

func (g *gen) rewind() {
	g.emitted, g.qi, g.qn = 0, 0, 0
	g.pc, g.addr = g.cfg.CodeBase, g.cfg.DataBase
	g.row, g.col = 0, 0
	g.recent = g.recent[:0]
}

func (g *gen) push(r Ref) {
	g.q[g.qn] = r
	g.qn++
}

// fetch queues the instruction fetch at pc and falls through to the
// next instruction, wrapping to CodeBase after loop bytes.
func (g *gen) fetch(loop uint64) {
	g.push(Ref{Kind: Fetch, Addr: g.pc, Size: 4, Compute: computeGap(g.rng)})
	g.pc += 4
	if g.pc >= g.cfg.CodeBase+loop {
		g.pc = g.cfg.CodeBase
	}
}

// SequentialSource streams straight-line code with occasional jumps
// and a configurable mix of data accesses: the general-purpose
// workload.
func SequentialSource(cfg Config) RefSource { return newGen("sequential", cfg, (*gen).sequential) }

// CodeOnlySource streams pure instruction fetches (Sequential with the
// data knobs forced to zero): the static-code workload Gilmont's engine
// targets — "this work only addresses static code ciphering".
func CodeOnlySource(cfg Config) RefSource {
	cfg.LoadFraction = 0
	cfg.WriteFraction = 0
	return newGen("code-only", cfg, (*gen).sequential)
}

// FirmwareSource returns a microcontroller-class Sequential stream: a
// 16 KiB code loop over a 32 KiB hot data set — the footprint of the
// survey's secured embedded parts, and the regime where active-attack
// detection latency is measurable (tampered lines actually cycle back
// through the cache; see internal/attack.Schedule).
func FirmwareSource(cfg Config) RefSource {
	cfg.CodeBase, cfg.CodeSize = 0, 16<<10
	cfg.DataBase, cfg.DataSize = addrmap.DataBase, 32<<10
	return newGen("firmware", cfg, (*gen).sequential)
}

// sequential is the sequential, code-only and firmware step: a fetch
// that jumps with probability JumpRate, then with probability
// LoadFraction a data access that revisits a recent address with
// probability Locality.
func (g *gen) sequential() {
	c, rng := &g.cfg, g.rng
	g.fetch(c.CodeSize)
	if rng.Float64() < c.JumpRate {
		g.pc = c.CodeBase + uint64(rng.Int63n(int64(c.CodeSize)))&^3
	}
	if rng.Float64() >= c.LoadFraction {
		return
	}
	var addr uint64
	if len(g.recent) > 0 && rng.Float64() < c.Locality {
		addr = g.recent[rng.Intn(len(g.recent))]
	} else {
		addr = c.DataBase + uint64(rng.Int63n(int64(c.DataSize)))&^3
		if len(g.recent) < cap(g.recent) {
			g.recent = append(g.recent, addr)
		} else {
			g.recent[rng.Intn(len(g.recent))] = addr
		}
	}
	k := Load
	if rng.Float64() < c.WriteFraction {
		k = Store
	}
	size := uint8(4)
	if rng.Float64() < 0.25 {
		size = 1 // byte stores are what trigger worst-case RMW
	}
	g.push(Ref{Kind: k, Addr: addr, Size: size, Compute: computeGap(rng)})
}

// StreamingSource streams long unit-stride data scans (memcpy-like)
// with sparse control: the friendliest case for prefetch and pipelined
// deciphering.
func StreamingSource(cfg Config) RefSource { return newGen("streaming", cfg, (*gen).streaming) }

// streaming is the streaming step: a fetch in a tight copy loop, then
// the next word of the data scan.
func (g *gen) streaming() {
	g.fetch(4096)
	k := Load
	if g.rng.Float64() < g.cfg.WriteFraction {
		k = Store
	}
	g.push(Ref{Kind: k, Addr: g.addr, Size: 4})
	g.addr += 4
	if g.addr >= g.cfg.DataBase+g.cfg.DataSize {
		g.addr = g.cfg.DataBase
	}
}

// PointerChaseSource streams dependent random loads (linked-list
// traversal): the workload with no latency-hiding opportunity, worst
// case for any deciphering latency on the miss path.
func PointerChaseSource(cfg Config) RefSource {
	return newGen("pointer-chase", cfg, (*gen).pointerChase)
}

// pointerChase is the pointer-chase step: a fetch, then a load from a
// random 8-byte slot of the data region.
func (g *gen) pointerChase() {
	g.fetch(256)
	addr := g.cfg.DataBase + uint64(g.rng.Int63n(int64(g.cfg.DataSize)))&^7
	g.push(Ref{Kind: Load, Addr: addr, Size: 8})
}

// MatrixLikeSource streams blocked row/column sweeps over a square
// matrix region: moderate locality, balanced loads and stores — the
// numeric kernel stand-in.
func MatrixLikeSource(cfg Config) RefSource { return newGen("matrix-like", cfg, (*gen).matrixLike) }

// matrixLike is the matrix-like step over 256x256 matrices of 8-byte
// elements: a fetch, then the A[row][col] load, B[col][row] load and
// C[row][col] store.
func (g *gen) matrixLike() {
	const dim = 256
	g.fetch(2048)
	base := g.cfg.DataBase
	g.push(Ref{Kind: Load, Addr: base + uint64(g.row*dim+g.col)*8, Size: 8})
	g.push(Ref{Kind: Load, Addr: base + uint64(dim*dim)*8 + uint64(g.col*dim+g.row)*8, Size: 8})
	g.push(Ref{Kind: Store, Addr: base + 2*uint64(dim*dim)*8 + uint64(g.row*dim+g.col)*8, Size: 8})
	g.col++
	if g.col == dim {
		g.col = 0
		g.row = (g.row + 1) % dim
	}
}

// multiSource streams the multi-process workload: per-process Sequential
// substreams advanced lazily a quantum at a time, so the whole workload
// is O(Processes) state instead of O(Processes x Refs) materialized slices.
type multiSource struct {
	cfg     MultiProcessConfig
	subs    [Processes]*gen
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
	for p := range m.subs {
		// Process p's Sequential substream, confined to its regions and
		// seeded from the workload's seed. Each is as long as the whole
		// workload, so none runs dry before the workload ends.
		sub := cfg.Config
		base, _ := ProcessRegion(p)
		sub.CodeBase, sub.CodeSize = base, regionBytes
		sub.DataBase, sub.DataSize = base+regionBytes, regionBytes
		sub.Seed = cfg.Seed + int64(p)*7919
		m.subs[p] = newGen("sequential", sub, (*gen).sequential)
	}
	return m
}

// Label implements RefSource.
func (m *multiSource) Label() string { return "multi-process" }

// Next implements RefSource.
func (m *multiSource) Next() (Ref, bool) {
	if m.emitted >= m.cfg.Refs {
		return Ref{}, false
	}
	if m.inQuant >= m.cfg.Quantum {
		m.p = (m.p + 1) % Processes
		m.inQuant = 0
	}
	r, _ := m.subs[m.p].Next()
	m.inQuant++
	m.emitted++
	return r, true
}

// Reset implements RefSource.
func (m *multiSource) Reset() {
	for _, sub := range m.subs {
		sub.Reset()
	}
	m.p, m.inQuant, m.emitted = 0, 0, 0
}
