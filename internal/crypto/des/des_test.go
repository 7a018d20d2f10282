package des

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// Classic published DES vector (and the degenerate all-zero one).
func TestKnownVectors(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{"133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"},
		{"0000000000000000", "0000000000000000", "8ca64de9c1b123a7"},
		{"ffffffffffffffff", "ffffffffffffffff", "7359b2163e4edc58"},
	}
	for _, c := range cases {
		key, _ := hex.DecodeString(c.key)
		pt, _ := hex.DecodeString(c.pt)
		ci, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		ci.Encrypt(got, pt)
		if hex.EncodeToString(got) != c.ct {
			t.Errorf("key %s: got %x, want %s", c.key, got, c.ct)
		}
		back := make([]byte, 8)
		ci.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Errorf("key %s: decrypt roundtrip failed", c.key)
		}
	}
}

// The three-key TDEA example of NIST SP 800-67 Appendix B: three blocks
// of ECB under K1,K2,K3.
func TestTripleKnownVector(t *testing.T) {
	key, _ := hex.DecodeString("0123456789abcdef" + "23456789abcdef01" + "456789abcdef0123")
	pt := []byte("The qufck brown fox jump")
	want := "a826fd8ce53b855f" + "cce21c8112256fe6" + "68d5c05dd9b6b900"
	ci, err := NewTriple(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(pt))
	for off := 0; off < len(pt); off += BlockSize {
		ci.Encrypt(got[off:], pt[off:])
	}
	if hex.EncodeToString(got) != want {
		t.Errorf("got %x, want %s", got, want)
	}
	back := make([]byte, len(got))
	for off := 0; off < len(got); off += BlockSize {
		ci.Decrypt(back[off:], got[off:])
	}
	if !bytes.Equal(back, pt) {
		t.Error("decrypt roundtrip failed")
	}
}

// EDE2 with K1==K2==K3 degenerates to single DES; EDE2 (16-byte key)
// reuses K1 as K3.
func TestTripleDegeneratesToSingle(t *testing.T) {
	key := []byte("8bytekey")
	k24 := append(append(append([]byte{}, key...), key...), key...)
	single, _ := New(key)
	triple, _ := NewTriple(k24)
	pt := []byte("survey05")
	a := make([]byte, 8)
	b := make([]byte, 8)
	single.Encrypt(a, pt)
	triple.Encrypt(b, pt)
	if !bytes.Equal(a, b) {
		t.Error("EDE with equal keys does not degenerate to single DES")
	}
}

func TestTripleEDE2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k16 := make([]byte, 16)
	rng.Read(k16)
	k24 := append(append([]byte{}, k16...), k16[:8]...)
	a, _ := NewTriple(k16)
	b, _ := NewTriple(k24)
	pt := make([]byte, 8)
	rng.Read(pt)
	ca := make([]byte, 8)
	cb := make([]byte, 8)
	a.Encrypt(ca, pt)
	b.Encrypt(cb, pt)
	if !bytes.Equal(ca, cb) {
		t.Error("EDE2 16-byte key does not equal EDE3 with K3=K1")
	}
}

func TestKeySizeErrors(t *testing.T) {
	if _, err := New(make([]byte, 7)); err == nil {
		t.Error("New(7 bytes): want error")
	}
	if _, err := NewTriple(make([]byte, 8)); err == nil {
		t.Error("NewTriple(8 bytes): want error")
	}
	if KeySizeError(3).Error() == "" {
		t.Error("empty KeySizeError message")
	}
}

func TestRoundtripProperty(t *testing.T) {
	ci, _ := New([]byte("propkey!"))
	tri, _ := NewTriple([]byte("propkey!propkey@propkey#"))
	f := func(pt [8]byte) bool {
		ct := make([]byte, 8)
		back := make([]byte, 8)
		ci.Encrypt(ct, pt[:])
		ci.Decrypt(back, ct)
		if !bytes.Equal(back, pt[:]) {
			return false
		}
		tri.Encrypt(ct, pt[:])
		tri.Decrypt(back, ct)
		return bytes.Equal(back, pt[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// DES complementation property: E_k̄(p̄) = Ē_k(p). A classic structural
// invariant of the cipher.
func TestComplementationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		key := make([]byte, 8)
		pt := make([]byte, 8)
		rng.Read(key)
		rng.Read(pt)
		nkey := make([]byte, 8)
		npt := make([]byte, 8)
		for i := range key {
			nkey[i] = ^key[i]
			npt[i] = ^pt[i]
		}
		c1, _ := New(key)
		c2, _ := New(nkey)
		a := make([]byte, 8)
		b := make([]byte, 8)
		c1.Encrypt(a, pt)
		c2.Encrypt(b, npt)
		for i := range a {
			if a[i] != ^b[i] {
				t.Fatalf("complementation property violated at byte %d", i)
			}
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	ci, _ := New(make([]byte, 8))
	src := make([]byte, 8)
	dst := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		ci.Encrypt(dst, src)
	}
}

func BenchmarkTripleEncrypt(b *testing.B) {
	ci, _ := NewTriple(make([]byte, 24))
	src := make([]byte, 8)
	dst := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		ci.Encrypt(dst, src)
	}
}
