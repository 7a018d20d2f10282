// Package ghash implements the Carter–Wegman universal hash over
// GF(2^128) that GCM calls GHASH — the construction that makes per-node
// authentication cheap enough to sit on a cache miss path. A hardware
// GHASH unit is one 128-bit carryless multiplier plus an accumulator
// (a few tens of kilogates), an order of magnitude smaller than a
// SHA-256 datapath, which is why the AEGIS-direction integrity trees
// tag every tree node with a keyed universal hash instead of a full
// cryptographic MAC.
//
// The multiply by H takes one byte of the accumulator per step. Key
// expansion fills two 16-entry tables: the multiples of H for a byte's
// top nibble, and the same times x⁴ for its bottom nibble. A block then
// costs 16 steps, each a shift by 8 bits, one lookup in a 256-entry
// reduction table derived at package init, and one lookup in each
// nibble table. Everything is fixed-size value state, so hashing a line
// performs zero heap allocations — the property the simulator's
// 0 allocs/ref hot path requires.
package ghash

import "encoding/binary"

// KeySize is the GHASH key length: one 128-bit field element H.
const KeySize = 16

// TagBytes is the truncated authenticator the memory-authentication
// engines store per node (64-bit tags, the common hardware width).
const TagBytes = 8

// Tag is a truncated GHASH authenticator.
type Tag = [TagBytes]byte

// fieldElement is a GF(2^128) element in GCM's reflected bit order:
// low holds the first 8 bytes of the serialized element, high the rest.
type fieldElement struct {
	low, high uint64
}

// Key is an expanded GHASH key. A byte's bits, most significant first,
// are the coefficients of x⁰…x⁷, so hi[n] is the multiple of H for the
// top nibble n and lo[n] = hi[n]·x⁴ the one for the bottom nibble.
type Key struct {
	hi, lo [16]fieldElement
}

// reduction[b] folds back in the byte b that ·x⁸ shifts out of a field
// element's x¹²⁰…x¹²⁷ coefficients: those bits become x¹²⁸…x¹³⁵, which
// reduce by x¹²⁸ = x⁷ + x² + x + 1 into the top 16 bits of the low word.
var reduction [256]uint16

func init() {
	for b := range reduction {
		x := fieldElement{high: uint64(b)}
		for i := 0; i < 8; i++ {
			x = double(x)
		}
		reduction[b] = uint16(x.low >> 48)
	}
}

// add is addition in GF(2^128): XOR.
func add(x, y fieldElement) fieldElement {
	return fieldElement{x.low ^ y.low, x.high ^ y.high}
}

// double multiplies by x in the reflected representation (the serialized
// msb is the polynomial's constant term, so doubling is a right shift
// with conditional reduction).
func double(x fieldElement) fieldElement {
	msbSet := x.high&1 == 1
	var d fieldElement
	d.high = x.high>>1 | x.low<<63
	d.low = x.low >> 1
	if msbSet {
		d.low ^= 0xe100000000000000
	}
	return d
}

// fill sets t[n] = n·x for every nibble n, its top bit the x⁰
// coefficient, and returns x·x⁴.
func fill(t *[16]fieldElement, x fieldElement) fieldElement {
	for bit := 8; bit > 0; bit >>= 1 {
		t[bit] = x
		x = double(x)
	}
	for n := 3; n < 16; n++ {
		t[n] = add(t[n&(n-1)], t[n&-n])
	}
	return x
}

// NewKey expands the 16-byte hash key H.
func NewKey(h []byte) *Key {
	if len(h) != KeySize {
		panic("ghash: key must be exactly 16 bytes")
	}
	x := fieldElement{
		binary.BigEndian.Uint64(h[:8]),
		binary.BigEndian.Uint64(h[8:]),
	}
	k := &Key{}
	fill(&k.lo, fill(&k.hi, x))
	return k
}

// mul sets y = y * H by Horner's rule over y's bytes, highest degree
// first: z = z·x⁸ + byte·H.
func (k *Key) mul(y *fieldElement) {
	var z fieldElement
	for _, word := range [2]uint64{y.high, y.low} {
		for j := 0; j < 8; j++ {
			out := uint8(z.high)
			z.high = z.high>>8 | z.low<<56
			z.low = z.low>>8 ^ uint64(reduction[out])<<48
			b := uint8(word)
			hi, lo := &k.hi[b>>4], &k.lo[b&0xf]
			z.low ^= hi.low ^ lo.low
			z.high ^= hi.high ^ lo.high
			word >>= 8
		}
	}
	*y = z
}

// absorb folds one 16-byte block into the accumulator: y = (y ⊕ b) · H.
func (k *Key) absorb(y *fieldElement, block []byte) {
	y.low ^= binary.BigEndian.Uint64(block[:8])
	y.high ^= binary.BigEndian.Uint64(block[8:])
	k.mul(y)
}

// sumInto absorbs data into y as full GHASH does: a ragged tail is
// zero-padded, and a final length block closes the polynomial, so inputs
// of different lengths never collide by padding.
func (k *Key) sumInto(y *fieldElement, data []byte) {
	n := len(data)
	for len(data) >= KeySize {
		k.absorb(y, data[:KeySize])
		data = data[KeySize:]
	}
	if len(data) > 0 {
		var pad [KeySize]byte
		copy(pad[:], data)
		k.absorb(y, pad[:])
	}
	var lenBlock [KeySize]byte
	binary.BigEndian.PutUint64(lenBlock[8:], uint64(n)*8)
	k.absorb(y, lenBlock[:])
}

func (k *Key) serialize(y *fieldElement) [KeySize]byte {
	var out [KeySize]byte
	binary.BigEndian.PutUint64(out[:8], y.low)
	binary.BigEndian.PutUint64(out[8:], y.high)
	return out
}

// TagLine computes the truncated authenticator the memory engines store
// per protected node: GHASH over a prefix block carrying the address
// and version (the bindings that stop splicing and replay) followed by
// the node's bytes. Allocation-free.
//
//repro:hotpath
func (k *Key) TagLine(addr, version uint64, data []byte) Tag {
	var y fieldElement
	var prefix [KeySize]byte
	binary.BigEndian.PutUint64(prefix[:8], addr)
	binary.BigEndian.PutUint64(prefix[8:], version)
	k.absorb(&y, prefix[:])
	k.sumInto(&y, data)
	full := k.serialize(&y)
	var t Tag
	copy(t[:], full[:TagBytes])
	return t
}
