// Package stream implements the stream-cipher machinery of the survey's
// Figure 2a: a keystream generator plus an XOR gate. The survey argues
// stream ciphers suit the processor–memory bus because "the key stream
// generation can be parallelised with external data fetch"; the engine
// models in internal/edu/streamengine and internal/edu/cacheside exploit
// exactly that property.
//
// The generator is a Geffe combiner over three 64-bit LFSRs
// (x^64 + x^63 + x^61 + x^60 + 1): register a selects between b and c.
// Historically proposed and still correlation-attackable, it is modelled
// the way the hardware runs it, as an LFSR bank emitting 8 bits per
// cycle. The taps sit in each register's low 5 bits, so the next 8
// feedback bits depend only on the current state and one byte step is
// a shift plus s ^ s>>1 ^ s>>3 ^ s>>4. The package tests hold every pad
// byte equal to a bit-serial LFSR/Geffe reference.
package stream

import "math/bits"

// The keystream generator's cost, shared by the Figure 7a stream
// engine and the Figure 7b cache-side engine.
const (
	// GeneratorGates is the generator's area in gate equivalents.
	GeneratorGates = 6000
	// CyclesPerByte is the generator's production rate in CPU cycles
	// per keystream byte: an LFSR bank emitting 8 bits per cycle.
	CyclesPerByte = 1
)

// PadSource is the address-seeded keystream a bus engine XORs into its
// lines: the pad for line L is the Geffe stream seeded with secret ^
// mix(L). A bus engine cannot afford a sequential stream — accesses
// arrive in address order, not time order — so every line's pad is
// reachable directly from its address.
type PadSource struct {
	secret   uint64
	lineSize int
}

// NewPadSource builds a pad source with the given secret and line size
// in bytes.
func NewPadSource(secret uint64, lineSize int) *PadSource {
	if lineSize <= 0 {
		panic("stream: non-positive line size")
	}
	return &PadSource{secret: secret, lineSize: lineSize}
}

// XOR sets dst[i] = src[i] ^ k(addr+i), where k(a) is byte a mod
// lineSize of the pad for line a / lineSize. dst must be at least as
// long as src. The same (secret, address) always gives the same byte —
// the determinism the deciphering side depends on, and also the reuse
// the survey warns requires protecting the keystream store.
func (p *PadSource) XOR(addr uint64, dst, src []byte) {
	dst = dst[:len(src)]
	ls := uint64(p.lineSize)
	var a, b, c uint64
	left := 0 // pad bytes left in the current line
	for i := range src {
		if left == 0 {
			at := addr + uint64(i)
			off := int(at % ls)
			a, b, c = seed(p.secret ^ mix(at/ls))
			for range off {
				a, b, c = step8(a), step8(b), step8(c)
			}
			left = p.lineSize - off
		}
		dst[i] = src[i] ^ bits.Reverse8(byte(a&b|^a&c))
		a, b, c = step8(a), step8(b), step8(c)
		left--
	}
}

// seed derives the three register states from one 64-bit seed. A zero
// register state is a fixed point, so it is remapped to 1.
func seed(s uint64) (a, b, c uint64) {
	return nonzero(s*0x9e3779b97f4a7c15 + 1),
		nonzero(s*0xbf58476d1ce4e5b9 + 2),
		nonzero(s*0x94d049bb133111eb + 3)
}

func nonzero(x uint64) uint64 {
	if x == 0 {
		return 1
	}
	return x
}

// step8 advances a register 8 bits; its low byte, bit 0 first, is the
// next 8 output bits.
func step8(s uint64) uint64 {
	f := s ^ s>>1 ^ s>>3 ^ s>>4
	return s>>8 | (f&0xff)<<56
}

// mix is a 64-bit finalizer (splitmix64) so adjacent line numbers seed
// well-separated generator states.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
