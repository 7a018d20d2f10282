package modes

import (
	"bytes"
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/des"
)

func newAES(t testing.TB) stdcipher.Block {
	t.Helper()
	b, err := aes.New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newDES(t testing.TB) stdcipher.Block {
	t.Helper()
	b, err := des.New([]byte("8bytekey"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestECBRoundtrip(t *testing.T) {
	for name, b := range map[string]stdcipher.Block{"aes": newAES(t), "des": newDES(t)} {
		e := NewECB(b)
		pt := bytes.Repeat([]byte("ABCDEFGH"), 8) // 64 bytes, multiple of both
		ct := make([]byte, len(pt))
		e.Encrypt(ct, pt)
		if bytes.Equal(ct, pt) {
			t.Errorf("%s: ciphertext equals plaintext", name)
		}
		back := make([]byte, len(pt))
		e.Decrypt(back, ct)
		if !bytes.Equal(back, pt) {
			t.Errorf("%s: roundtrip failed", name)
		}
	}
}

// The determinism leak: identical plaintext blocks give identical
// ciphertext blocks under ECB but not under CBC.
func TestECBLeaksCBCHides(t *testing.T) {
	b := newAES(t)
	pt := bytes.Repeat([]byte("0123456789abcdef"), 4) // 4 identical blocks
	ct := make([]byte, len(pt))
	NewECB(b).Encrypt(ct, pt)
	if !bytes.Equal(ct[0:16], ct[16:32]) {
		t.Error("ECB: identical plaintext blocks should encrypt identically")
	}

	NewBlockCBC(b, IVRandom, 0).EncryptBlockAt(0, ct, pt)
	if bytes.Equal(ct[0:16], ct[16:32]) {
		t.Error("CBC: identical plaintext blocks should differ")
	}
}

// The chain round-trips a line of any whole number of blocks.
func TestCBCRoundtrip(t *testing.T) {
	a := NewBlockCBC(newAES(t), IVCounter, 3)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 16 * (1 + rng.Intn(16))
		pt := make([]byte, n)
		rng.Read(pt)
		addr := uint64(rng.Intn(1<<16)) * 16
		ct := make([]byte, n)
		a.EncryptBlockAt(addr, ct, pt)
		back := make([]byte, n)
		a.DecryptBlockAt(addr, back, ct)
		if !bytes.Equal(back, pt) {
			t.Fatalf("trial %d: CBC roundtrip of %d bytes failed", trial, n)
		}
	}
}

// A BlockCBC line is plain CBC under IV = E_K(addr ‖ salt), where salt
// is the random vector or, under IVCounter, the vector plus the line's
// write count: crypto/cipher's CBC must reproduce both directions.
func TestCBCMatchesStdlib(t *testing.T) {
	key := []byte("0123456789abcdef")
	ours, err := aes.New(key)
	if err != nil {
		t.Fatal(err)
	}
	std, err := stdaes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const salt = 0xfedcba98
	for _, mode := range []IVMode{IVRandom, IVCounter} {
		a := NewBlockCBC(ours, mode, salt)
		for trial := 0; trial < 20; trial++ {
			addr := uint64(rng.Intn(4)) * 64 // revisit lines to advance counters
			pt := make([]byte, 16*(1+rng.Intn(8)))
			rng.Read(pt)
			got := make([]byte, len(pt))
			a.EncryptBlockAt(addr, got, pt)

			ivSalt := uint64(salt)
			if mode == IVCounter {
				ivSalt += a.counters[addr]
			}
			iv := make([]byte, 16)
			binary.BigEndian.PutUint64(iv[:8], addr)
			binary.BigEndian.PutUint64(iv[8:], ivSalt)
			std.Encrypt(iv, iv)
			want := make([]byte, len(pt))
			stdcipher.NewCBCEncrypter(std, iv).CryptBlocks(want, pt)
			if !bytes.Equal(got, want) {
				t.Fatalf("mode %d addr %#x: CBC line disagrees with crypto/cipher", mode, addr)
			}
			back := make([]byte, len(pt))
			a.DecryptBlockAt(addr, back, want)
			stdcipher.NewCBCDecrypter(std, iv).CryptBlocks(want, want)
			if !bytes.Equal(back, want) || !bytes.Equal(back, pt) {
				t.Fatalf("mode %d addr %#x: CBC line decrypt disagrees with crypto/cipher", mode, addr)
			}
		}
	}
}

func TestBlockCBCRoundtripBothIVModes(t *testing.T) {
	for _, mode := range []IVMode{IVRandom, IVCounter} {
		a := NewBlockCBC(newAES(t), mode, 0xdeadbeef)
		line := make([]byte, 32) // a 32-byte cache block
		rand.New(rand.NewSource(4)).Read(line)
		ct := make([]byte, 32)
		a.EncryptBlockAt(0x8000, ct, line)
		back := make([]byte, 32)
		a.DecryptBlockAt(0x8000, back, ct)
		if !bytes.Equal(back, line) {
			t.Errorf("mode %d: BlockCBC roundtrip failed", mode)
		}
	}
}

// Different addresses must produce different ciphertext for the same
// plaintext (the address is in the IV) — this is what defeats the
// block-relocation observation ECB allows.
func TestBlockCBCAddressBinding(t *testing.T) {
	a := NewBlockCBC(newAES(t), IVRandom, 42)
	line := bytes.Repeat([]byte{0xAA}, 32)
	c1 := make([]byte, 32)
	c2 := make([]byte, 32)
	a.EncryptBlockAt(0x1000, c1, line)
	a.EncryptBlockAt(0x2000, c2, line)
	if bytes.Equal(c1, c2) {
		t.Error("same plaintext at different addresses encrypted identically")
	}
}

// In counter mode, rewriting the same block at the same address yields a
// fresh ciphertext every time; in random mode it repeats — the exposure
// behind the birthday attack.
func TestBlockCBCCounterFreshness(t *testing.T) {
	line := bytes.Repeat([]byte{0x55}, 32)

	ctr := NewBlockCBC(newAES(t), IVCounter, 7)
	c1 := make([]byte, 32)
	c2 := make([]byte, 32)
	ctr.EncryptBlockAt(0x1000, c1, line)
	ctr.EncryptBlockAt(0x1000, c2, line)
	if bytes.Equal(c1, c2) {
		t.Error("IVCounter: rewrite reused ciphertext")
	}
	// The reader must still see the latest write.
	back := make([]byte, 32)
	ctr.DecryptBlockAt(0x1000, back, c2)
	if !bytes.Equal(back, line) {
		t.Error("IVCounter: cannot decrypt latest write")
	}

	rnd := NewBlockCBC(newAES(t), IVRandom, 7)
	rnd.EncryptBlockAt(0x1000, c1, line)
	rnd.EncryptBlockAt(0x1000, c2, line)
	if !bytes.Equal(c1, c2) {
		t.Error("IVRandom: expected deterministic rewrite (that is its weakness)")
	}
}

func TestBlockCBCWithDES(t *testing.T) {
	a := NewBlockCBC(newDES(t), IVCounter, 99)
	line := make([]byte, 32)
	rand.New(rand.NewSource(5)).Read(line)
	ct := make([]byte, 32)
	a.EncryptBlockAt(0x40, ct, line)
	back := make([]byte, 32)
	a.DecryptBlockAt(0x40, back, ct)
	if !bytes.Equal(back, line) {
		t.Error("BlockCBC over DES roundtrip failed")
	}
}

func TestCTRRoundtripAndAddressability(t *testing.T) {
	c := NewCTR(newAES(t), 0x1234)
	rng := rand.New(rand.NewSource(6))
	pt := make([]byte, 160)
	rng.Read(pt)
	ct := make([]byte, len(pt))
	c.XOR(ct, pt, 100)
	back := make([]byte, len(pt))
	c.XOR(back, ct, 100)
	if !bytes.Equal(back, pt) {
		t.Error("CTR roundtrip failed")
	}

	// Random access: decrypting only the tail with the right counter.
	tail := make([]byte, 32)
	c.XOR(tail, ct[128:], 100+128/16)
	if !bytes.Equal(tail, pt[128:]) {
		t.Error("CTR random access failed")
	}
}

// The pad is XOR of a zero buffer.
func TestCTRPadIsDeterministicPerCounter(t *testing.T) {
	c := NewCTR(newAES(t), 9)
	zero := make([]byte, 64)
	p1 := make([]byte, 64)
	p2 := make([]byte, 64)
	c.XOR(p1, zero, 5)
	c.XOR(p2, zero, 5)
	if !bytes.Equal(p1, p2) {
		t.Error("pad not deterministic")
	}
	c.XOR(p2, zero, 6)
	if bytes.Equal(p1, p2) {
		t.Error("pads for different counters identical")
	}
}

func TestCTRWithDESBlock(t *testing.T) {
	c := NewCTR(newDES(t), 0xbeef)
	pt := []byte("sixteen byte msg")
	ct := make([]byte, 16)
	c.XOR(ct, pt, 3)
	back := make([]byte, 16)
	c.XOR(back, ct, 3)
	if !bytes.Equal(back, pt) {
		t.Error("CTR over DES roundtrip failed")
	}
}

func TestNonBlockMultiplePanics(t *testing.T) {
	e := NewECB(newAES(t))
	defer func() {
		if recover() == nil {
			t.Error("odd-length ECB input did not panic")
		}
	}()
	e.Encrypt(make([]byte, 17), make([]byte, 17))
}

func TestPropertyRoundtrips(t *testing.T) {
	b := newAES(t)
	a := NewBlockCBC(b, IVCounter, 1)
	ctr := NewCTR(b, 2)
	f := func(data [64]byte, addr uint64) bool {
		ct := make([]byte, 64)
		back := make([]byte, 64)
		a.EncryptBlockAt(addr, ct, data[:])
		a.DecryptBlockAt(addr, back, ct)
		if !bytes.Equal(back, data[:]) {
			return false
		}
		ctr.XOR(ct, data[:], addr)
		ctr.XOR(back, ct, addr)
		return bytes.Equal(back, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
