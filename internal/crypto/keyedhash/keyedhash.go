// Package keyedhash provides the data-authentication primitives the
// General Instrument patent attaches to its bus encryptor: the survey
// notes the design can "authenticate the data coming from external
// memory thanks to a keyed hash algorithm".
//
// Two constructions are provided: HMAC over a from-scratch SHA-256
// (cross-checked against crypto/sha256 and crypto/hmac in the tests),
// and DES-CBC-MAC, the construction hardware of the patent's era would
// actually have used (it reuses the DES datapath already on the die).
package keyedhash

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"repro/internal/crypto/des"
)

// Size is the SHA-256 digest length in bytes.
const Size = 32

// BlockSize is the SHA-256 message block length in bytes.
const BlockSize = 64

var k256 = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// Digest is an incremental SHA-256 computation (FIPS 180-4).
type Digest struct {
	h      [8]uint32
	buf    [BlockSize]byte
	n      int    // bytes buffered
	length uint64 // total message bytes
}

// NewSHA256 returns a fresh SHA-256 digest.
func NewSHA256() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset restores the initial hash state.
func (d *Digest) Reset() {
	d.h = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
	d.n = 0
	d.length = 0
}

// Write absorbs p; it never fails.
func (d *Digest) Write(p []byte) (int, error) {
	d.length += uint64(len(p))
	n := len(p)
	for len(p) > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n == BlockSize {
			d.block(d.buf[:])
			d.n = 0
		}
	}
	return n, nil
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }

func (d *Digest) block(p []byte) {
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	for i := 16; i < 64; i++ {
		s0 := rotr(w[i-15], 7) ^ rotr(w[i-15], 18) ^ w[i-15]>>3
		s1 := rotr(w[i-2], 17) ^ rotr(w[i-2], 19) ^ w[i-2]>>10
		w[i] = w[i-16] + s0 + w[i-7] + s1
	}
	a, b, c, dd, e, f, g, h := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4], d.h[5], d.h[6], d.h[7]
	for i := 0; i < 64; i++ {
		s1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := e&f ^ ^e&g
		t1 := h + s1 + ch + k256[i] + w[i]
		s0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := a&b ^ a&c ^ b&c
		t2 := s0 + maj
		h, g, f, e, dd, c, b, a = g, f, e, dd+t1, c, b, a, t1+t2
	}
	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
	d.h[5] += f
	d.h[6] += g
	d.h[7] += h
}

// SumFixed returns the digest of everything written so far without
// allocating; the digest state is not disturbed. This is the hot-path
// form — the per-line verifiers call it once per bus line.
//
//repro:hotpath
func (d *Digest) SumFixed() [Size]byte {
	c := *d // pad a copy so further Writes continue the stream
	var tail [BlockSize + 8]byte
	tail[0] = 0x80
	padLen := BlockSize - (int(c.length)+9)%BlockSize + 1
	if padLen == BlockSize+1 {
		padLen = 1
	}
	binary.BigEndian.PutUint64(tail[padLen:padLen+8], c.length*8)
	c.Write(tail[:padLen+8])
	var out [Size]byte
	for i, v := range c.h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// Sum appends the digest of everything written so far to in and returns
// the result; the digest state is not disturbed. (hash.Hash-style
// convenience; use SumFixed on allocation-free paths.)
func (d *Digest) Sum(in []byte) []byte {
	out := d.SumFixed()
	return append(in, out[:]...)
}

// Sum256 returns the SHA-256 digest of data.
func Sum256(data []byte) [Size]byte {
	var d Digest
	d.Reset()
	d.Write(data)
	return d.SumFixed()
}

// MAC is a reusable HMAC-SHA256 state: the key schedule (padded key
// blocks) is computed once in Init, and Reset/Write/SumFixed run
// allocation-free, so a verifier can hold a MAC by value and tag one
// line per call on the hot path.
type MAC struct {
	opad [BlockSize]byte
	// innerInit is the inner digest with the ipad block absorbed;
	// Reset restores inner from it by value copy.
	innerInit Digest
	inner     Digest
}

// Init computes the key schedule. Call once per key; it may allocate.
func (m *MAC) Init(key []byte) {
	if len(key) > BlockSize {
		sum := Sum256(key)
		key = sum[:]
	}
	var ipad [BlockSize]byte
	copy(ipad[:], key)
	copy(m.opad[:], key)
	for i := range ipad {
		ipad[i] ^= 0x36
		m.opad[i] ^= 0x5c
	}
	m.innerInit.Reset()
	m.innerInit.Write(ipad[:])
	m.inner = m.innerInit
}

// Reset restarts the message, keeping the key schedule.
//
//repro:hotpath
func (m *MAC) Reset() { m.inner = m.innerInit }

// Write absorbs p into the current message.
//
//repro:hotpath
func (m *MAC) Write(p []byte) { m.inner.Write(p) }

// SumFixed returns HMAC(key, message-so-far) without allocating and
// without disturbing the running state.
//
//repro:hotpath
func (m *MAC) SumFixed() [Size]byte {
	innerSum := m.inner.SumFixed()
	var outer Digest
	outer.Reset()
	outer.Write(m.opad[:])
	outer.Write(innerSum[:])
	return outer.SumFixed()
}

// HMAC computes HMAC-SHA256(key, msg) per RFC 2104. One-shot form;
// repeated callers should hold a MAC and Reset it per message.
func HMAC(key, msg []byte) [Size]byte {
	var m MAC
	m.Init(key)
	m.Write(msg)
	return m.SumFixed()
}

// Equal compares two MACs in constant time (per-byte accumulate).
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}

// CBCMAC computes DES-CBC-MAC over msg, the period-appropriate keyed
// hash for the General Instrument engine: the message is padded with
// zeros to a block multiple and run through DES-CBC with a zero IV; the
// final ciphertext block is the 8-byte tag. Only safe for fixed-length
// messages (cache lines are), which the engine layer guarantees. A
// CBCMAC is not safe for concurrent use.
type CBCMAC struct {
	c cipher.Block
	// acc is the chaining value. It lives in the struct because a stack
	// buffer passed through the cipher.Block call would escape to the heap.
	acc [TagSize]byte
}

// NewCBCMAC builds a DES-CBC-MAC with an 8-byte key.
func NewCBCMAC(key []byte) (*CBCMAC, error) {
	c, err := des.New(key)
	if err != nil {
		return nil, fmt.Errorf("keyedhash: %w", err)
	}
	return &CBCMAC{c: c}, nil
}

// TagSize is the CBC-MAC tag length (one DES block).
const TagSize = des.BlockSize

// Sum returns the 8-byte tag for msg.
func (m *CBCMAC) Sum(msg []byte) [TagSize]byte {
	acc := m.acc[:]
	clear(acc)
	for off := 0; off < len(msg); off += TagSize {
		var blk [TagSize]byte
		copy(blk[:], msg[off:])
		for i := range acc {
			acc[i] ^= blk[i]
		}
		m.c.Encrypt(acc, acc)
	}
	if len(msg) == 0 {
		m.c.Encrypt(acc, acc)
	}
	return m.acc
}

// Verify recomputes the tag for msg and compares in constant time.
func (m *CBCMAC) Verify(msg []byte, tag [TagSize]byte) bool {
	want := m.Sum(msg)
	return Equal(want[:], tag[:])
}
