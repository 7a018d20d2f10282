// Package ghash computes the per-node authenticator the integrity trees
// store: GMAC, GCM with the node as associated data and no plaintext.
// GMAC is the Carter–Wegman construction over GF(2^128) that makes
// per-node authentication cheap enough to sit on a cache miss path: the
// GHASH universal hash of the node, masked by one AES block of the
// nonce. A hardware GHASH unit is one 128-bit carryless multiplier plus
// an accumulator (a few tens of kilogates), an order of magnitude
// smaller than a SHA-256 datapath, which is why the AEGIS-direction
// integrity trees tag every tree node with a keyed universal hash
// instead of a full cryptographic MAC. The mask depends only on the
// address and version, so hardware computes it while the line is still
// in flight.
//
// The tag runs on the standard library's AES-GCM (AES-NI and PCLMULQDQ
// on amd64). The nonce and the sum are scratch arrays in the Key, so a
// tag performs zero heap allocations — the property the simulator's
// 0 allocs/ref hot path requires.
package ghash

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// KeySize is the key length: an AES-128 key.
const KeySize = 16

// TagBytes is the truncated authenticator the memory-authentication
// engines store per node (64-bit tags, the common hardware width).
const TagBytes = 8

// Tag is a truncated GMAC authenticator.
type Tag = [TagBytes]byte

// Key is a GMAC key with its tag scratch. A Key is not safe for
// concurrent use: TagLine writes the scratch.
type Key struct {
	gcm   cipher.AEAD
	nonce [16]byte
	sum   [16]byte
}

// NewKey builds a GMAC key from a 16-byte AES-128 key.
func NewKey(key []byte) *Key {
	if len(key) != KeySize {
		panic("ghash: key must be exactly 16 bytes")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	// A 16-byte nonce holds addr ‖ version without truncation.
	gcm, err := cipher.NewGCMWithNonceSize(block, 16)
	if err != nil {
		panic(err)
	}
	return &Key{gcm: gcm}
}

// TagLine computes the truncated authenticator the memory engines store
// per protected node: GMAC over the node's bytes under the nonce
// addr ‖ version (the bindings that stop splicing and replay).
// Allocation-free.
//
//repro:hotpath
func (k *Key) TagLine(addr, version uint64, data []byte) Tag {
	binary.BigEndian.PutUint64(k.nonce[:8], addr)
	binary.BigEndian.PutUint64(k.nonce[8:], version)
	k.gcm.Seal(k.sum[:0], k.nonce[:], nil, data)
	return Tag(k.sum[:TagBytes])
}
