// Package bestcipher models the cipher of Robert M. Best's crypto-
// microprocessor patents (US 4,168,396 / 4,278,837 / 4,465,901), the
// design the survey credits with introducing bus encryption "25 years
// ago". Per the survey: "The block cipher chosen is based on basic
// cryptographic functions such as mono and poly-alphabetic substitutions
// and byte transpositions", with the cipher unit and the secret key held
// on-chip and everything outside the SoC enciphered.
//
// The model is faithful to that construction style, not to the exact
// patent tables (which are illustrative in the patents themselves):
//
//   - a key-derived mono-alphabetic substitution (one fixed byte S-box),
//   - a poly-alphabetic layer: the substitution alphabet is rotated by a
//     value derived from the byte's address (Best enciphers each byte as
//     a function of its address so relocated code does not repeat),
//   - a byte transposition within the block, permuting positions by a
//     key- and address-derived permutation.
//
// Its cryptographic weakness — small per-byte alphabets recoverable by
// frequency analysis / known plaintext — is intentional and measured by
// experiment E15.
package bestcipher

import "fmt"

// BlockSize is the cipher's block size in bytes. Best's patents operate
// on small multi-byte words fetched over the bus; we use 8.
const BlockSize = 8

// Cipher is an instance keyed with a 64-bit secret held "in an on-chip
// register" per the survey's description of Figure 3.
type Cipher struct {
	sub    [256]byte // mono-alphabetic substitution
	invSub [256]byte
	key    uint64
}

// New builds a Best-style cipher from an 8-byte key.
func New(key []byte) (*Cipher, error) {
	if len(key) != 8 {
		return nil, fmt.Errorf("bestcipher: key must be 8 bytes, got %d", len(key))
	}
	var k uint64
	for _, b := range key {
		k = k<<8 | uint64(b)
	}
	c := &Cipher{key: k}
	c.buildSbox()
	return c, nil
}

// buildSbox derives the mono-alphabetic substitution from the key with a
// Fisher–Yates shuffle driven by a splitmix of the key — a stand-in for
// the patent's key-loaded substitution matrix.
func (c *Cipher) buildSbox() {
	for i := 0; i < 256; i++ {
		c.sub[i] = byte(i)
	}
	x := c.key
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := 255; i > 0; i-- {
		j := int(next() % uint64(i+1))
		c.sub[i], c.sub[j] = c.sub[j], c.sub[i]
	}
	for i := 0; i < 256; i++ {
		c.invSub[c.sub[i]] = byte(i)
	}
}

// alphabetShift is the poly-alphabetic rotation for the byte at the given
// bus address: the same plaintext byte maps to different ciphertext bytes
// at different addresses.
func (c *Cipher) alphabetShift(addr uint64) byte {
	h := addr*0x2545f4914f6cdd1d + c.key
	return byte(h ^ h>>17 ^ h>>31)
}

// permFor derives the in-block byte transposition for the block starting
// at addr: a permutation of the 8 positions chosen by key and address.
func (c *Cipher) permFor(addr uint64) [BlockSize]int {
	var p [BlockSize]int
	for i := range p {
		p[i] = i
	}
	h := addr ^ c.key*0x9e3779b97f4a7c15
	for i := BlockSize - 1; i > 0; i-- {
		h = h*6364136223846793005 + 1442695040888963407
		j := int(h>>33) % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// EncryptAt enciphers one block located at bus address addr (addr must be
// block-aligned; the hardware enforces this with the address decoder).
func (c *Cipher) EncryptAt(addr uint64, dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("bestcipher: input not full block")
	}
	if addr%BlockSize != 0 {
		panic(fmt.Sprintf("bestcipher: unaligned block address %#x", addr))
	}
	// Substitution pass: mono-alphabetic box rotated per byte address.
	var tmp [BlockSize]byte
	for i := 0; i < BlockSize; i++ {
		shift := c.alphabetShift(addr + uint64(i))
		tmp[i] = c.sub[src[i]+shift]
	}
	// Transposition pass.
	p := c.permFor(addr)
	for i := 0; i < BlockSize; i++ {
		dst[p[i]] = tmp[i]
	}
}

// DecryptAt inverts EncryptAt for the block at addr.
func (c *Cipher) DecryptAt(addr uint64, dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("bestcipher: input not full block")
	}
	if addr%BlockSize != 0 {
		panic(fmt.Sprintf("bestcipher: unaligned block address %#x", addr))
	}
	p := c.permFor(addr)
	var tmp [BlockSize]byte
	for i := 0; i < BlockSize; i++ {
		tmp[i] = src[p[i]]
	}
	for i := 0; i < BlockSize; i++ {
		shift := c.alphabetShift(addr + uint64(i))
		dst[i] = c.invSub[tmp[i]] - shift
	}
}
