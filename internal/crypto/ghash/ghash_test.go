package ghash

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// slowMul is an independent GF(2^128) multiplication written straight
// from the NIST SP 800-38D definition: bit-by-bit conditional add with
// shift-reduce by R = 0xe1·x^120.
func slowMul(x, y [16]byte) [16]byte {
	var z [16]byte
	v := x
	for i := 0; i < 128; i++ {
		if y[i/8]&(0x80>>(i%8)) != 0 {
			for j := range z {
				z[j] ^= v[j]
			}
		}
		lsb := v[15] & 1
		// Right shift the whole 128-bit value by one bit.
		var carry byte
		for j := 0; j < 16; j++ {
			next := v[j] & 1
			v[j] = v[j]>>1 | carry<<7
			carry = next
		}
		if lsb == 1 {
			v[0] ^= 0xe1
		}
	}
	return z
}

// slowGHASH is GHASH_H over blocks already padded to whole 16-byte
// blocks, with slowMul as the multiply.
func slowGHASH(h [16]byte, blocks []byte) [16]byte {
	var y [16]byte
	for ; len(blocks) > 0; blocks = blocks[16:] {
		for i := range y {
			y[i] ^= blocks[i]
		}
		y = slowMul(y, h)
	}
	return y
}

// gmacDefinition is the SP 800-38D GCM tag for associated data a, no
// plaintext and a 16-byte nonce, built from the AES block and slowMul
// alone — it shares no code with crypto/cipher's GCM:
//
//	H   = E_K(0¹²⁸)
//	J0  = GHASH_H(nonce ‖ 0⁶⁴ ‖ [128]₆₄)
//	tag = GHASH_H(a ‖ pad ‖ [8·len a]₆₄ ‖ [0]₆₄) ⊕ E_K(J0)
func gmacDefinition(t *testing.T, key []byte, nonce [16]byte, a []byte) [16]byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var h [16]byte
	block.Encrypt(h[:], h[:])

	var ivBlocks [32]byte
	copy(ivBlocks[:], nonce[:])
	binary.BigEndian.PutUint64(ivBlocks[24:], 128)
	j0 := slowGHASH(h, ivBlocks[:])
	var mask [16]byte
	block.Encrypt(mask[:], j0[:])

	padded := make([]byte, (len(a)+15)/16*16+16)
	copy(padded, a)
	binary.BigEndian.PutUint64(padded[len(padded)-16:], uint64(len(a))*8)
	s := slowGHASH(h, padded)
	for i := range s {
		s[i] ^= mask[i]
	}
	return s
}

// TestNISTGCMVector anchors the oracle's GHASH to the GCM spec's test
// case 2 intermediate value: H = 66e94bd4ef8a2c3b884cfa59ca342b2e over
// one ciphertext block and the length block [0]₆₄ ‖ [128]₆₄.
func TestNISTGCMVector(t *testing.T) {
	h, _ := hex.DecodeString("66e94bd4ef8a2c3b884cfa59ca342b2e")
	c, _ := hex.DecodeString("0388dace60b6a392f328c2b971b2fe78")
	want, _ := hex.DecodeString("f38cbb1ad69223dcc3457ae5b6b0f885")
	blocks := make([]byte, 32)
	copy(blocks, c)
	binary.BigEndian.PutUint64(blocks[24:], 128)
	got := slowGHASH([16]byte(h), blocks)
	if !bytes.Equal(got[:], want) {
		t.Fatalf("GHASH = %x, want %x", got, want)
	}
}

func TestTagLineMatchesGMACDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 20; trial++ {
		key := make([]byte, KeySize)
		rng.Read(key)
		k := NewKey(key)
		for _, n := range []int{0, 16, 32, 43, 48, 64} {
			addr, version := rng.Uint64(), rng.Uint64()
			if trial == 0 {
				version = 0 // the hash-tree and flat-mac case
			}
			data := make([]byte, n)
			rng.Read(data)
			var nonce [16]byte
			binary.BigEndian.PutUint64(nonce[:8], addr)
			binary.BigEndian.PutUint64(nonce[8:], version)
			want := gmacDefinition(t, key, nonce, data)
			if got := k.TagLine(addr, version, data); got != Tag(want[:TagBytes]) {
				t.Fatalf("key %x addr %#x version %d len %d: TagLine %x, SP 800-38D tag %x",
					key, addr, version, n, got, want[:TagBytes])
			}
		}
	}
}

// TestTagLineBindings flips every bit of the node, the address and the
// version in turn: each flip must change the tag, or a spoof, splice or
// replay that differs only there would verify.
func TestTagLineBindings(t *testing.T) {
	k := NewKey([]byte("0123456789abcdef"))
	line := make([]byte, 32)
	for i := range line {
		line[i] = byte(i)
	}
	const addr, version = 0x1000, 3
	base := k.TagLine(addr, version, line)

	if got := k.TagLine(addr, version, line); got != base {
		t.Fatalf("tag not deterministic: %x vs %x", got, base)
	}
	for bit := 0; bit < 64; bit++ {
		if got := k.TagLine(addr^1<<bit, version, line); got == base {
			t.Fatalf("tag ignores address bit %d (splice would pass)", bit)
		}
		if got := k.TagLine(addr, version^1<<bit, line); got == base {
			t.Fatalf("tag ignores version bit %d (replay would pass)", bit)
		}
	}
	mutated := append([]byte(nil), line...)
	for i := range mutated {
		for bit := 0; bit < 8; bit++ {
			mutated[i] ^= 1 << bit
			if got := k.TagLine(addr, version, mutated); got == base {
				t.Fatalf("tag ignores node byte %d bit %d (spoof would pass)", i, bit)
			}
			mutated[i] ^= 1 << bit
		}
	}
	if got := k.TagLine(addr, version, line[:31]); got == base {
		t.Fatalf("tag ignores node length")
	}
	if got := NewKey([]byte("fedcba9876543210")).TagLine(addr, version, line); got == base {
		t.Fatalf("tag ignores key")
	}
}

func TestTagLineZeroAllocs(t *testing.T) {
	k := NewKey([]byte("0123456789abcdef"))
	line := make([]byte, 32)
	if avg := testing.AllocsPerRun(100, func() {
		_ = k.TagLine(0x40, 1, line)
	}); avg != 0 {
		t.Fatalf("TagLine allocates %.1f per call, want 0", avg)
	}
}

// BenchmarkTagLine times one tag over a 32-byte line; CI's bench smoke
// holds it to 0 allocs/op.
func BenchmarkTagLine(b *testing.B) {
	k := NewKey([]byte("0123456789abcdef"))
	line := make([]byte, 32)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.TagLine(uint64(i)*32, 1, line)
	}
}
