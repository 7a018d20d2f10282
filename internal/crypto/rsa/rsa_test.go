package rsa

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

func genTestKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(rand.New(rand.NewSource(42)), bits)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestGenerateKeyProperties(t *testing.T) {
	key := genTestKey(t, 512)
	if key.Bits() != 512 {
		t.Errorf("modulus bit length = %d, want 512", key.Bits())
	}
	// e*d ≡ 1 (mod phi) implies m^(ed) = m; spot-check the trapdoor.
	m := big.NewInt(123456789)
	c := new(big.Int).Exp(m, key.E, key.N)
	back := new(big.Int).Exp(c, key.D, key.N)
	if back.Cmp(m) != 0 {
		t.Error("trapdoor property fails")
	}
}

func TestGenerateKeyTooSmall(t *testing.T) {
	if _, err := GenerateKey(rand.New(rand.NewSource(1)), 64); err == nil {
		t.Error("64-bit modulus accepted")
	}
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	key := genTestKey(t, 512)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		msg := make([]byte, 1+rng.Intn(40))
		rng.Read(msg)
		ct, err := Encrypt(rng, &key.PublicKey, msg)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(ct, msg) && len(msg) > 4 {
			t.Error("ciphertext contains plaintext")
		}
		back, err := Decrypt(key, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, msg) {
			t.Fatalf("roundtrip failed for %d-byte message", len(msg))
		}
	}
}

func TestEncryptTooLong(t *testing.T) {
	key := genTestKey(t, 256)
	long := make([]byte, 64)
	if _, err := Encrypt(rand.New(rand.NewSource(1)), &key.PublicKey, long); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	key := genTestKey(t, 512)
	msg := []byte("session-key-K")
	c1, _ := Encrypt(rand.New(rand.NewSource(1)), &key.PublicKey, msg)
	c2, _ := Encrypt(rand.New(rand.NewSource(2)), &key.PublicKey, msg)
	if bytes.Equal(c1, c2) {
		t.Error("two encryptions with different pads identical")
	}
	// Both still decrypt.
	for _, c := range [][]byte{c1, c2} {
		back, err := Decrypt(key, c)
		if err != nil || !bytes.Equal(back, msg) {
			t.Error("randomized ciphertext failed to decrypt")
		}
	}
}

func TestDecryptRejectsOutOfRange(t *testing.T) {
	key := genTestKey(t, 256)
	big := make([]byte, 64)
	for i := range big {
		big[i] = 0xff
	}
	if _, err := Decrypt(key, big); err == nil {
		t.Error("out-of-range ciphertext accepted")
	}
}

func TestWrongKeyFailsToDecrypt(t *testing.T) {
	k1 := genTestKey(t, 512)
	k2, err := GenerateKey(rand.New(rand.NewSource(99)), 512)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the secret session key")
	ct, _ := Encrypt(rand.New(rand.NewSource(3)), &k1.PublicKey, msg)
	back, err := Decrypt(k2, ct)
	if err == nil && bytes.Equal(back, msg) {
		t.Error("decryption with the wrong private key recovered the message")
	}
}

func TestDeterministicKeygen(t *testing.T) {
	a, _ := GenerateKey(rand.New(rand.NewSource(5)), 256)
	b, _ := GenerateKey(rand.New(rand.NewSource(5)), 256)
	if a.N.Cmp(b.N) != 0 || a.D.Cmp(b.D) != 0 {
		t.Error("same seed produced different keys (experiments must be reproducible)")
	}
}

func BenchmarkEncrypt512(b *testing.B) {
	key, _ := GenerateKey(rand.New(rand.NewSource(42)), 512)
	rng := rand.New(rand.NewSource(1))
	msg := []byte("16-byte-sess-key")
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(rng, &key.PublicKey, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt512(b *testing.B) {
	key, _ := GenerateKey(rand.New(rand.NewSource(42)), 512)
	ct, _ := Encrypt(rand.New(rand.NewSource(1)), &key.PublicKey, []byte("16-byte-sess-key"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decrypt(key, ct); err != nil {
			b.Fatal(err)
		}
	}
}
