package ghash

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// slowMul is an independent GF(2^128) multiplication written straight
// from the NIST SP 800-38D definition: bit-by-bit conditional add with
// shift-reduce by R = 0xe1·x^120. It shares no code with the table
// implementation, so agreement between the two validates both.
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

// sum computes the full 16-byte GHASH of data, the framing the GCM
// oracles below check.
func (k *Key) sum(data []byte) [KeySize]byte {
	var y fieldElement
	k.sumInto(&y, data)
	return k.serialize(&y)
}

// slowSum reimplements sum's message schedule (blocks, zero-padded
// tail, closing length block) over slowMul.
func slowSum(h []byte, data []byte) [16]byte {
	var hh [16]byte
	copy(hh[:], h)
	var y [16]byte
	absorb := func(block [16]byte) {
		for i := range y {
			y[i] ^= block[i]
		}
		y = slowMul(y, hh)
	}
	n := len(data)
	for len(data) >= 16 {
		var b [16]byte
		copy(b[:], data[:16])
		absorb(b)
		data = data[16:]
	}
	if len(data) > 0 {
		var b [16]byte
		copy(b[:], data)
		absorb(b)
	}
	var lenBlock [16]byte
	binary.BigEndian.PutUint64(lenBlock[8:], uint64(n)*8)
	absorb(lenBlock)
	return y
}

func TestFastMatchesBitwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Edge keys first: H = 0 (every table entry zero), H = 1 (the x⁰
	// coefficient alone, so each table entry is a few shifted bits) and
	// H = all-ones; then 50 random keys.
	keys := [][]byte{
		make([]byte, KeySize),
		append([]byte{0x80}, make([]byte, KeySize-1)...),
		bytes.Repeat([]byte{0xff}, KeySize),
	}
	for i := 0; i < 50; i++ {
		h := make([]byte, KeySize)
		rng.Read(h)
		keys = append(keys, h)
	}
	for trial, h := range keys {
		k := NewKey(h)
		for _, n := range []int{0, 1, 8, 15, 16, 17, 32, 33, 64, 100} {
			data := make([]byte, n)
			rng.Read(data)
			fast := k.sum(data)
			slow := slowSum(h, data)
			if fast != slow {
				t.Fatalf("key %d len %d: fast %x != slow %x (h=%x)", trial, n, fast, slow, h)
			}
		}
	}
}

// TestMatchesStdlibGCM checks sum against crypto/cipher's AES-GCM as an
// independent oracle. With no associated data a GCM tag is
// GHASH_H(C) ⊕ E_K(J0), where H = E_K(0¹²⁸) and J0 = nonce ‖ 0³¹1 for
// a 12-byte nonce, so sum over the ciphertext must rebuild the tag
// Seal appends. Lengths 0–200 cover empty input, whole blocks and
// every ragged tail.
func TestMatchesStdlibGCM(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n <= 200; n++ {
		key := make([]byte, []int{16, 24, 32}[n%3])
		nonce := make([]byte, 12)
		plain := make([]byte, n)
		rng.Read(key)
		rng.Read(nonce)
		rng.Read(plain)

		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		sealed := gcm.Seal(nil, nonce, plain, nil)
		ct, want := sealed[:n], sealed[n:]

		var h, j0, ekj0 [16]byte
		block.Encrypt(h[:], h[:])
		copy(j0[:], nonce)
		j0[15] = 1
		block.Encrypt(ekj0[:], j0[:])
		tag := NewKey(h[:]).sum(ct)
		for i := range tag {
			tag[i] ^= ekj0[i]
		}
		if !bytes.Equal(tag[:], want) {
			t.Fatalf("len %d: GHASH(C) ⊕ E_K(J0) = %x, GCM tag = %x", n, tag, want)
		}
	}
}

// The GCM spec's test case 2 intermediate value: GHASH with
// H = 66e94bd4ef8a2c3b884cfa59ca342b2e over a single ciphertext block
// and the standard length block — exactly sum's framing for a 16-byte
// input with no associated data.
func TestNISTGCMVector(t *testing.T) {
	h, _ := hex.DecodeString("66e94bd4ef8a2c3b884cfa59ca342b2e")
	c, _ := hex.DecodeString("0388dace60b6a392f328c2b971b2fe78")
	want, _ := hex.DecodeString("f38cbb1ad69223dcc3457ae5b6b0f885")
	got := NewKey(h).sum(c)
	if !bytes.Equal(got[:], want) {
		t.Fatalf("GHASH = %x, want %x", got, want)
	}
}

func TestTagLineBindings(t *testing.T) {
	k := NewKey([]byte("0123456789abcdef"))
	line := make([]byte, 32)
	for i := range line {
		line[i] = byte(i)
	}
	base := k.TagLine(0x1000, 3, line)

	if got := k.TagLine(0x1000, 3, line); got != base {
		t.Fatalf("tag not deterministic: %x vs %x", got, base)
	}
	if got := k.TagLine(0x2000, 3, line); got == base {
		t.Fatalf("tag ignores address (splice would pass)")
	}
	if got := k.TagLine(0x1000, 4, line); got == base {
		t.Fatalf("tag ignores version (replay would pass)")
	}
	mutated := append([]byte(nil), line...)
	mutated[7] ^= 1
	if got := k.TagLine(0x1000, 3, mutated); got == base {
		t.Fatalf("tag ignores content (spoof would pass)")
	}
	if got := NewKey([]byte("fedcba9876543210")).TagLine(0x1000, 3, line); got == base {
		t.Fatalf("tag ignores key")
	}
}

func TestTagLineMatchesReference(t *testing.T) {
	h := []byte("0123456789abcdef")
	k := NewKey(h)
	line := make([]byte, 32)
	rand.New(rand.NewSource(7)).Read(line)
	got := k.TagLine(0xdead0000, 42, line)

	// Reference: prefix block (addr ‖ version) followed by the line,
	// through the bitwise implementation with the same framing. The
	// length block covers only the data bytes, as sumInto does.
	var hh [16]byte
	copy(hh[:], h)
	var y [16]byte
	var prefix [16]byte
	binary.BigEndian.PutUint64(prefix[:8], 0xdead0000)
	binary.BigEndian.PutUint64(prefix[8:], 42)
	for i := range y {
		y[i] ^= prefix[i]
	}
	y = slowMul(y, hh)
	for off := 0; off < 32; off += 16 {
		var b [16]byte
		copy(b[:], line[off:off+16])
		for i := range y {
			y[i] ^= b[i]
		}
		y = slowMul(y, hh)
	}
	var lenBlock [16]byte
	binary.BigEndian.PutUint64(lenBlock[8:], 32*8)
	for i := range y {
		y[i] ^= lenBlock[i]
	}
	y = slowMul(y, hh)

	if !bytes.Equal(got[:], y[:TagBytes]) {
		t.Fatalf("TagLine = %x, reference prefix %x", got, y[:TagBytes])
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
