// Package modes implements the block-cipher operating modes the bus
// engines run: ECB (the "obvious" mode whose determinism leaks
// patterns), CTR (the counter mode that lets a pad be precomputed from
// the address), and the AEGIS-style per-cache-block CBC whose
// initialization vector is derived from the block address plus a random
// value or a write counter. CBC over a whole message is deliberately
// absent: the survey notes its use "proves limited in a
// processor-memory system due to the random data access problem (JUMP
// instructions)", so every engine chains within one cache block.
//
// All modes operate on whole multiples of the cipher's block size; the
// bus-engine layer is responsible for the read-modify-write dance on
// partial writes (that cost is exactly what experiment E3 measures).
package modes

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// ECB is Electronic CodeBook: each block enciphered independently.
// Deterministic — identical plaintext blocks produce identical
// ciphertext blocks, the weakness §2.2 of the survey calls out and
// experiment E4 quantifies.
type ECB struct{ b cipher.Block }

// NewECB wraps b in ECB mode.
func NewECB(b cipher.Block) *ECB { return &ECB{b} }

func checkLen(n, bs int) {
	if n%bs != 0 {
		panic(fmt.Sprintf("modes: length %d not a multiple of block size %d", n, bs))
	}
}

// Encrypt enciphers src into dst; len(src) must be a block multiple.
func (e *ECB) Encrypt(dst, src []byte) {
	bs := e.b.BlockSize()
	checkLen(len(src), bs)
	for i := 0; i < len(src); i += bs {
		e.b.Encrypt(dst[i:i+bs], src[i:i+bs])
	}
}

// Decrypt deciphers src into dst.
func (e *ECB) Decrypt(dst, src []byte) {
	bs := e.b.BlockSize()
	checkLen(len(src), bs)
	for i := 0; i < len(src); i += bs {
		e.b.Decrypt(dst[i:i+bs], src[i:i+bs])
	}
}

// cbcEncrypt is the CBC encryption chain: xor each plaintext block with
// the previous ciphertext block (iv first) into scratch (a block-size
// buffer the caller keeps in its struct, which is what keeps the hot
// path allocation-free), then encipher.
func cbcEncrypt(b cipher.Block, iv, scratch, dst, src []byte) {
	bs := b.BlockSize()
	checkLen(len(src), bs)
	prev := iv
	for i := 0; i < len(src); i += bs {
		for j := 0; j < bs; j++ {
			scratch[j] = src[i+j] ^ prev[j]
		}
		b.Encrypt(dst[i:i+bs], scratch)
		prev = dst[i : i+bs]
	}
}

// cbcDecrypt is the CBC decryption chain. dst and src must not alias:
// the chain needs the previous *ciphertext* block.
func cbcDecrypt(b cipher.Block, iv, dst, src []byte) {
	bs := b.BlockSize()
	checkLen(len(src), bs)
	prev := iv
	for i := 0; i < len(src); i += bs {
		b.Decrypt(dst[i:i+bs], src[i:i+bs])
		for j := 0; j < bs; j++ {
			dst[i+j] ^= prev[j]
		}
		prev = src[i : i+bs]
	}
}

// IVMode selects how BlockCBC derives per-cache-block IVs.
type IVMode int

const (
	// IVRandom derives the IV from the block address and a per-system
	// random vector. Vulnerable to the birthday attack the survey notes.
	IVRandom IVMode = iota
	// IVCounter derives the IV from the block address and a monotonically
	// increasing write counter, the fix AEGIS proposes.
	IVCounter
)

// BlockCBC is the AEGIS scheme: the chaining unit is one cache block, so
// every cache block can be (de)ciphered independently — restoring random
// access — while chaining inside the block keeps CBC's diffusion.
// IV(blockAddr) = E_K(addr ‖ salt) where salt is random or a counter.
type BlockCBC struct {
	b        cipher.Block
	mode     IVMode
	salt     uint64            // random vector (IVRandom)
	counters map[uint64]uint64 // per-address write counters (IVCounter)
	// Scratch for iv() and the chaining xor so the per-line hot path
	// does not allocate; a BlockCBC is a single hardware unit and is
	// not goroutine-safe.
	ivSrc, ivBuf, xorBuf [maxBlockSize]byte
}

// maxBlockSize bounds the cipher block sizes the mode scratch buffers
// accommodate (AES is 16; 64 leaves headroom).
const maxBlockSize = 64

// NewBlockCBC builds an AEGIS-style per-cache-block CBC engine. salt
// seeds the random-vector variant and the initial counter value.
func NewBlockCBC(b cipher.Block, mode IVMode, salt uint64) *BlockCBC {
	if b.BlockSize() > maxBlockSize {
		panic(fmt.Sprintf("modes: block size %d exceeds %d", b.BlockSize(), maxBlockSize))
	}
	return &BlockCBC{b: b, mode: mode, salt: salt, counters: make(map[uint64]uint64)}
}

// iv computes the initialization vector for the cache block at addr.
// freshen advances the write counter first (call with true on writes).
// The returned slice aliases internal scratch, valid until the next
// iv() call.
func (a *BlockCBC) iv(addr uint64, freshen bool) []byte {
	bs := a.b.BlockSize()
	var salt uint64
	switch a.mode {
	case IVRandom:
		salt = a.salt
	case IVCounter:
		if freshen {
			a.counters[addr]++ //repro:allow sparse IV-freshness counters; steady-state bumps hit existing keys
		}
		salt = a.salt + a.counters[addr]
	}
	src := a.ivSrc[:bs]
	for i := range src {
		src[i] = 0
	}
	binary.BigEndian.PutUint64(src[:8], addr)
	if bs >= 16 {
		binary.BigEndian.PutUint64(src[8:16], salt)
	} else {
		// 8-byte blocks: fold the salt into the address word.
		binary.BigEndian.PutUint64(src[:8], addr^salt)
	}
	iv := a.ivBuf[:bs]
	a.b.Encrypt(iv, src)
	return iv
}

// EncryptBlockAt enciphers one cache block stored at addr, advancing the
// write counter in IVCounter mode so rewrites never reuse an IV. The
// persistent xor scratch keeps the per-line hot path allocation-free.
func (a *BlockCBC) EncryptBlockAt(addr uint64, dst, src []byte) {
	cbcEncrypt(a.b, a.iv(addr, true), a.xorBuf[:a.b.BlockSize()], dst, src)
}

// DecryptBlockAt deciphers one cache block stored at addr. dst and src
// must not alias (the chain needs the previous ciphertext block).
func (a *BlockCBC) DecryptBlockAt(addr uint64, dst, src []byte) {
	cbcDecrypt(a.b, a.iv(addr, false), dst, src)
}

// CTR is counter mode: the cipher enciphers a per-block counter to form
// a pad XORed with the data. Because the counter for a bus transfer can
// be the *address*, the pad is computable before the data arrives from
// external memory — this is the property that lets a block cipher behave
// like a stream cipher on the bus (experiment E2's winning configuration).
type CTR struct {
	b     cipher.Block
	nonce uint64
	// Scratch so the per-block pad generation does not allocate; a CTR
	// is a single hardware unit and is not goroutine-safe.
	ctrBlock, padBlock [maxBlockSize]byte
}

// NewCTR builds a CTR pad generator keyed by b with a fixed nonce mixed
// into every counter block.
func NewCTR(b cipher.Block, nonce uint64) *CTR {
	if b.BlockSize() > maxBlockSize {
		panic(fmt.Sprintf("modes: block size %d exceeds %d", b.BlockSize(), maxBlockSize))
	}
	return &CTR{b: b, nonce: nonce}
}

// padOne fills the internal pad scratch for one counter value and
// returns it (valid until the next padOne call).
func (c *CTR) padOne(counter uint64) []byte {
	bs := c.b.BlockSize()
	ctrBlock := c.ctrBlock[:bs]
	for i := range ctrBlock {
		ctrBlock[i] = 0
	}
	binary.BigEndian.PutUint64(ctrBlock[:8], c.nonce)
	if bs >= 16 {
		binary.BigEndian.PutUint64(ctrBlock[8:16], counter)
	} else {
		binary.BigEndian.PutUint64(ctrBlock[:8], c.nonce^counter)
	}
	pad := c.padBlock[:bs]
	c.b.Encrypt(pad, ctrBlock)
	return pad
}

// XOR applies the pad for counter to src, writing dst (encrypt and
// decrypt are the same operation).
func (c *CTR) XOR(dst, src []byte, counter uint64) {
	bs := c.b.BlockSize()
	for off := 0; off < len(src); off += bs {
		pad := c.padOne(counter)
		n := len(src) - off
		if n > bs {
			n = bs
		}
		for i := 0; i < n; i++ {
			dst[off+i] = src[off+i] ^ pad[i]
		}
		counter++
	}
}
