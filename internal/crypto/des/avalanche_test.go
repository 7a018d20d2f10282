package des

import (
	"math/rand"
	"testing"
)

// Avalanche property: one plaintext bit flip should change roughly half
// of the 64 ciphertext bits — the diffusion the 16 Feistel rounds exist
// to provide.
func TestPlaintextAvalanche(t *testing.T) {
	ci, err := New([]byte("aval-key"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var total, samples int
	for trial := 0; trial < 100; trial++ {
		pt := make([]byte, 8)
		rng.Read(pt)
		base := make([]byte, 8)
		ci.Encrypt(base, pt)
		bit := rng.Intn(64)
		mod := append([]byte{}, pt...)
		mod[bit/8] ^= 1 << uint(bit%8)
		out := make([]byte, 8)
		ci.Encrypt(out, mod)
		total += hammingDES(base, out)
		samples++
	}
	mean := float64(total) / float64(samples)
	if mean < 26 || mean > 38 { // 32 ± 6
		t.Errorf("plaintext avalanche mean %.1f bits, want ~32", mean)
	}
}

// Key avalanche over the 56 effective key bits (parity bits excluded:
// flipping a parity bit must change nothing).
func TestKeyAvalanche(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var total, samples int
	for trial := 0; trial < 100; trial++ {
		key := make([]byte, 8)
		rng.Read(key)
		pt := make([]byte, 8)
		rng.Read(pt)
		c1, _ := New(key)
		// Flip a non-parity bit (bits 1..7 of each byte in FIPS
		// numbering; parity is the LSB of each byte).
		byteIdx := rng.Intn(8)
		bitIdx := 1 + rng.Intn(7)
		key2 := append([]byte{}, key...)
		key2[byteIdx] ^= 1 << uint(bitIdx)
		c2, _ := New(key2)
		a := make([]byte, 8)
		b := make([]byte, 8)
		c1.Encrypt(a, pt)
		c2.Encrypt(b, pt)
		total += hammingDES(a, b)
		samples++
	}
	mean := float64(total) / float64(samples)
	if mean < 26 || mean > 38 {
		t.Errorf("key avalanche mean %.1f bits, want ~32", mean)
	}
}

// Parity bits are ignored by the key schedule: flipping one changes no
// ciphertext bit.
func TestParityBitsIgnored(t *testing.T) {
	key := []byte("parity!!")
	c1, _ := New(key)
	key2 := append([]byte{}, key...)
	key2[3] ^= 0x01 // LSB = parity position in FIPS byte numbering
	c2, _ := New(key2)
	pt := []byte("testblok")
	a := make([]byte, 8)
	b := make([]byte, 8)
	c1.Encrypt(a, pt)
	c2.Encrypt(b, pt)
	if hammingDES(a, b) != 0 {
		t.Error("parity bit influenced the ciphertext")
	}
}

func hammingDES(a, b []byte) int {
	n := 0
	for i := range a {
		x := a[i] ^ b[i]
		for x != 0 {
			n += int(x & 1)
			x >>= 1
		}
	}
	return n
}
