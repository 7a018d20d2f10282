// Package ds5002 models the bus-encryption microcontrollers of Dallas
// Semiconductor described in the survey's Figure 6: the DS5002FP, whose
// "ciphering by block of 8-bit instructions" was broken by Markus Kuhn's
// cipher instruction search attack, and its successor the DS5240, where
// "the 8-bit based ciphering passes to 64-bit based ciphering" using a
// true DES or 3-DES core.
//
// The DS5002FP's real cipher was proprietary; Kuhn's attack does not
// depend on its internals, only on the structural facts that (a) each
// instruction byte is enciphered independently as a function of its
// address and a stored key, so (b) for a fixed address there are at most
// 256 possible ciphertext bytes, searchable exhaustively. The model here
// preserves exactly those facts (an address-keyed byte substitution
// following the block diagram: address encryptor + data encryptor), so
// the attack in internal/attack reproduces Kuhn's result; see E9.
package ds5002

import (
	"crypto/cipher"
	"fmt"

	"repro/internal/crypto/des"
)

// DS5002 models the original part: independent 8-bit bus encryption with
// separate address and data scramblers.
type DS5002 struct {
	key uint64
}

// NewDS5002 builds the 8-bit bus cipher from an 8-byte key (the part's
// battery-backed key register).
func NewDS5002(key []byte) (*DS5002, error) {
	if len(key) != 8 {
		return nil, fmt.Errorf("ds5002: key must be 8 bytes, got %d", len(key))
	}
	var k uint64
	for _, b := range key {
		k = k<<8 | uint64(b)
	}
	return &DS5002{key: k}, nil
}

// scrambleAddr models the address encryptor: external memory is filled
// through a key-dependent address permutation, so dumping it in order
// reveals neither code layout nor contents.
func (d *DS5002) scrambleAddr(addr uint16) uint16 {
	x := uint32(addr) ^ uint32(d.key)
	x = (x * 0x9E37) & 0xffff
	x ^= x >> 7
	x = (x * 0x79B9) & 0xffff
	x ^= x >> 9
	// Make it a permutation of the 16-bit space: the steps above are all
	// invertible (odd multiplications mod 2^16, xor-shifts), so x is one.
	return uint16(x)
}

// byteKey derives the per-address byte-substitution key. This is the
// heart of what Kuhn exploited: it depends only on (key, addr), never on
// neighbouring data.
func (d *DS5002) byteKey(addr uint16) byte {
	h := (uint64(addr)+1)*0x2545f4914f6cdd1d ^ d.key
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return byte(h >> 56)
}

// EncryptByte enciphers one data byte destined for external address addr.
func (d *DS5002) EncryptByte(addr uint16, b byte) byte {
	k := d.byteKey(addr)
	// Keyed byte cipher: xor, nibble swap, add — invertible and fast,
	// structurally matching a tiny substitution network.
	x := b ^ k
	x = x<<4 | x>>4
	return x + k
}

// DecryptByte inverts EncryptByte at addr.
func (d *DS5002) DecryptByte(addr uint16, b byte) byte {
	k := d.byteKey(addr)
	x := b - k
	x = x<<4 | x>>4
	return x ^ k
}

// MemSize is the external SRAM image size: the part's full 16-bit
// address space. Store and Load require images of exactly this size so
// the address scrambler stays collision-free.
const MemSize = 1 << 16

// Store enciphers value into the external memory image mem at the
// scrambled location for addr, as the bootstrap loader does.
func (d *DS5002) Store(mem []byte, addr uint16, value byte) {
	if len(mem) != MemSize {
		panic(fmt.Sprintf("ds5002: memory image must be %d bytes, got %d", MemSize, len(mem)))
	}
	mem[d.scrambleAddr(addr)] = d.EncryptByte(addr, value)
}

// Load fetches and deciphers the byte for CPU address addr from mem.
func (d *DS5002) Load(mem []byte, addr uint16) byte {
	if len(mem) != MemSize {
		panic(fmt.Sprintf("ds5002: memory image must be %d bytes, got %d", MemSize, len(mem)))
	}
	return d.DecryptByte(addr, mem[d.scrambleAddr(addr)])
}

// DS5240 models the successor part: the 8-bit ciphering "passes to
// 64-bit based ciphering" with single DES or 3-DES selected at key load.
type DS5240 struct {
	blk cipher.Block
	key uint64 // whitening for address binding
}

// NewDS5240 builds the 64-bit successor. Key length selects the core:
// 8 bytes → single DES, 16/24 bytes → 3-DES, matching the survey's
// "true DES or 3-DES block cipher".
func NewDS5240(key []byte) (*DS5240, error) {
	var k uint64
	for _, b := range key {
		k = k<<8 ^ uint64(b)*0x100000001b3
	}
	switch len(key) {
	case 8:
		c, err := des.New(key)
		if err != nil {
			return nil, err
		}
		return &DS5240{blk: c, key: k}, nil
	case 16, 24:
		c, err := des.NewTriple(key)
		if err != nil {
			return nil, err
		}
		return &DS5240{blk: c, key: k}, nil
	default:
		return nil, fmt.Errorf("ds5240: key must be 8, 16 or 24 bytes, got %d", len(key))
	}
}

// BlockSize returns the bus encryption granule, 8 bytes.
func (d *DS5240) BlockSize() int { return des.BlockSize }

// EncryptBlockAt enciphers one 8-byte block bound to its bus address:
// the plaintext is whitened with an address-derived tweak before the DES
// core so identical instruction words at different addresses differ on
// the bus (the property whose absence doomed simple ECB).
func (d *DS5240) EncryptBlockAt(addr uint64, dst, src []byte) {
	// Whiten into dst and encipher in place: a stack buffer passed
	// through the cipher.Block call would escape to the heap.
	dst = dst[:des.BlockSize]
	tweak := d.tweak(addr)
	for i := range dst {
		dst[i] = src[i] ^ tweak[i]
	}
	d.blk.Encrypt(dst, dst)
}

// DecryptBlockAt inverts EncryptBlockAt.
func (d *DS5240) DecryptBlockAt(addr uint64, dst, src []byte) {
	d.blk.Decrypt(dst, src)
	tweak := d.tweak(addr)
	for i := 0; i < des.BlockSize; i++ {
		dst[i] ^= tweak[i]
	}
}

func (d *DS5240) tweak(addr uint64) [des.BlockSize]byte {
	h := (addr/des.BlockSize + 1) * 0x9e3779b97f4a7c15
	h ^= d.key
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	var t [des.BlockSize]byte
	for i := range t {
		t[i] = byte(h >> (8 * uint(i)))
	}
	return t
}
