// Package stream implements the stream-cipher machinery of the survey's
// Figure 2a: a keystream generator plus an XOR gate. The survey argues
// stream ciphers suit the processor–memory bus because "the key stream
// generation can be parallelised with external data fetch"; the engine
// models in internal/edu/streamengine exploit exactly that property.
//
// Two generators are provided, the ones the stream engines run:
//
//   - LFSR: a single Fibonacci linear-feedback shift register. Fast and
//     tiny in hardware, but linear — recoverable from 2·deg output bits
//     (Berlekamp–Massey); kept as the known-weak baseline.
//   - Geffe: three LFSRs nonlinearly combined. Historically proposed,
//     still correlation-attackable; a middle robustness point.
//
// Both implement Keystream, and the address-seeded PadSource turns
// either into a random-access pad for bus lines; the engines XOR the
// pad into the line themselves.
package stream

import "fmt"

// Keystream produces a deterministic byte stream from its seed state.
type Keystream interface {
	// Next returns the next keystream byte.
	Next() byte
	// Reset rewinds the generator to a fresh state derived from seed,
	// so the deciphering side can reproduce the stream.
	Reset(seed uint64)
}

// LFSR is a Fibonacci linear-feedback shift register with a fixed
// primitive feedback polynomial of degree 64
// (x^64 + x^63 + x^61 + x^60 + 1, taps 64,63,61,60).
type LFSR struct {
	state uint64
	taps  uint64
}

// NewLFSR returns a 64-bit LFSR seeded with seed (zero is remapped, as a
// zero LFSR state is a fixed point).
func NewLFSR(seed uint64) *LFSR {
	// Right-shift Fibonacci form: taps 64,63,61,60 sit at bit offsets
	// 0,1,3,4 from the output end, mask 0b11011.
	l := &LFSR{taps: 0x1b}
	l.Reset(seed)
	return l
}

// Reset reseeds the register.
func (l *LFSR) Reset(seed uint64) {
	if seed == 0 {
		seed = 0x1 // avoid the degenerate all-zero state
	}
	l.state = seed
}

// Step advances one bit and returns it.
func (l *LFSR) Step() byte {
	out := byte(l.state & 1)
	// Parity of tapped bits becomes the new MSB.
	fb := popcountParity(l.state & l.taps)
	l.state = l.state>>1 | uint64(fb)<<63
	return out
}

func popcountParity(x uint64) byte {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// Next assembles eight steps into a keystream byte.
func (l *LFSR) Next() byte {
	var b byte
	for i := 0; i < 8; i++ {
		b = b<<1 | l.Step()
	}
	return b
}

// Geffe combines three LFSRs with the Geffe function
// f(a,b,c) = (a AND b) XOR (NOT a AND c): LFSR a selects between b and c.
type Geffe struct {
	a, b, c *LFSR
}

// NewGeffe builds the three-register generator; the three internal seeds
// are derived from seed so a single 64-bit secret drives the unit.
func NewGeffe(seed uint64) *Geffe {
	g := &Geffe{a: NewLFSR(0), b: NewLFSR(0), c: NewLFSR(0)}
	g.Reset(seed)
	return g
}

// Reset reseeds all three registers with distinct mixes of seed.
func (g *Geffe) Reset(seed uint64) {
	g.a.Reset(seed*0x9e3779b97f4a7c15 + 1)
	g.b.Reset(seed*0xbf58476d1ce4e5b9 + 2)
	g.c.Reset(seed*0x94d049bb133111eb + 3)
}

// Next returns the next combined keystream byte.
func (g *Geffe) Next() byte {
	var out byte
	for i := 0; i < 8; i++ {
		a := g.a.Step()
		b := g.b.Step()
		c := g.c.Step()
		out = out<<1 | (a&b | (1-a)&c)
	}
	return out
}

// PadSource derives a random-access pad from a generator factory: the
// pad for bus line address A is the first lineSize bytes of the stream
// seeded with secret‖A. This is what both the Fig. 7b cache-side EDU and
// the stream EDU between cache and memory controller consume, because a
// bus engine cannot afford a sequential stream — accesses arrive in
// address order, not time order.
type PadSource struct {
	secret   uint64
	lineSize int
	gen      Keystream
}

// NewPadSource builds a pad source over gen with the given secret and
// line size in bytes.
func NewPadSource(gen Keystream, secret uint64, lineSize int) *PadSource {
	if lineSize <= 0 {
		panic("stream: non-positive line size")
	}
	return &PadSource{secret: secret, lineSize: lineSize, gen: gen}
}

// LineSize returns the pad granularity in bytes.
func (p *PadSource) LineSize() int { return p.lineSize }

// Pad writes the pad for the line containing addr into dst
// (len(dst) == LineSize()). The same (secret, line) always produces the
// same pad — the determinism the deciphering side depends on, and also
// the reuse the survey warns requires protecting the keystream store.
func (p *PadSource) Pad(dst []byte, addr uint64) {
	if len(dst) != p.lineSize {
		panic(fmt.Sprintf("stream: pad buffer %d != line size %d", len(dst), p.lineSize))
	}
	line := addr / uint64(p.lineSize)
	p.gen.Reset(p.secret ^ mix(line))
	for i := range dst {
		dst[i] = p.gen.Next()
	}
}

// mix is a 64-bit finalizer (splitmix64) so adjacent line numbers seed
// well-separated generator states.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
