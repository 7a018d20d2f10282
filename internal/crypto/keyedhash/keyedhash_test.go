package keyedhash

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha "crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSHA256KnownVectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
	}
	for _, c := range cases {
		got := Sum256([]byte(c.in))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("Sum256(%q) = %x, want %s", c.in, got, c.want)
		}
	}
}

func TestSHA256AgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		msg := make([]byte, n)
		rng.Read(msg)
		got := Sum256(msg)
		want := stdsha.Sum256(msg)
		if got != want {
			t.Fatalf("len %d: digest mismatch", n)
		}
	}
}

// Incremental writes in arbitrary chunkings must equal one-shot hashing.
func TestSHA256Incremental(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	msg := make([]byte, 1000)
	rng.Read(msg)
	want := Sum256(msg)

	d := NewSHA256()
	rest := msg
	for len(rest) > 0 {
		n := 1 + rng.Intn(100)
		if n > len(rest) {
			n = len(rest)
		}
		d.Write(rest[:n])
		rest = rest[n:]
	}
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Error("incremental digest differs from one-shot")
	}
}

// Sum must not disturb the running state.
func TestSumIsNonDestructive(t *testing.T) {
	d := NewSHA256()
	d.Write([]byte("hello "))
	_ = d.Sum(nil)
	d.Write([]byte("world"))
	want := Sum256([]byte("hello world"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Error("Sum disturbed the digest state")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	d := NewSHA256()
	d.Write([]byte("garbage"))
	d.Reset()
	d.Write([]byte("abc"))
	want := Sum256([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Error("Reset did not restore initial state")
	}
}

func TestHMACAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		key := make([]byte, 1+rng.Intn(100))
		msg := make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(msg)
		got := HMAC(key, msg)
		ref := stdhmac.New(stdsha.New, key)
		ref.Write(msg)
		if !bytes.Equal(got[:], ref.Sum(nil)) {
			t.Fatalf("HMAC mismatch keyLen=%d msgLen=%d", len(key), len(msg))
		}
	}
}

func TestHMACRFC4231Vector(t *testing.T) {
	key := bytes.Repeat([]byte{0x0b}, 20)
	got := HMAC(key, []byte("Hi There"))
	want := "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("RFC 4231 case 1: got %x", got)
	}
}

func TestEqual(t *testing.T) {
	a := []byte{1, 2, 3}
	if !Equal(a, []byte{1, 2, 3}) {
		t.Error("Equal on equal slices = false")
	}
	if Equal(a, []byte{1, 2, 4}) {
		t.Error("Equal on different slices = true")
	}
	if Equal(a, []byte{1, 2}) {
		t.Error("Equal on different lengths = true")
	}
}

func TestCBCMACDetectsTamper(t *testing.T) {
	m, err := NewCBCMAC([]byte("mac-key!"))
	if err != nil {
		t.Fatal(err)
	}
	line := []byte("a 32-byte cache line of code....")
	tag := m.Sum(line)
	if !m.Verify(line, tag) {
		t.Fatal("valid tag rejected")
	}
	for i := range line {
		mod := append([]byte{}, line...)
		mod[i] ^= 0x01
		if m.Verify(mod, tag) {
			t.Fatalf("single-bit tamper at byte %d not detected", i)
		}
	}
}

func TestCBCMACKeyDependence(t *testing.T) {
	m1, _ := NewCBCMAC([]byte("key-one!"))
	m2, _ := NewCBCMAC([]byte("key-two!"))
	msg := []byte("16 bytes of data")
	if m1.Sum(msg) == m2.Sum(msg) {
		t.Error("MACs under different keys coincide")
	}
}

func TestCBCMACEmptyAndShort(t *testing.T) {
	m, _ := NewCBCMAC([]byte("mac-key!"))
	tagEmpty := m.Sum(nil)
	tagZero := m.Sum(make([]byte, 8))
	if tagEmpty == tagZero {
		// Zero-padded single zero block equals the empty-message tag in
		// plain CBC-MAC; we accept that here because the engine only MACs
		// fixed-size lines, but the tags must at least be deterministic.
		t.Log("empty and zero-block tags coincide (expected for plain CBC-MAC)")
	}
	if !m.Verify(nil, tagEmpty) {
		t.Error("empty-message tag does not verify")
	}
}

// Sum runs on every General Instrument line: it must not allocate, even
// though its chaining buffer goes through the cipher.Block interface.
func TestCBCMACSumZeroAllocs(t *testing.T) {
	m, err := NewCBCMAC([]byte("mac-key!"))
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 32)
	if avg := testing.AllocsPerRun(100, func() { m.Sum(line) }); avg != 0 {
		t.Errorf("Sum allocated %.1f times per call, want 0", avg)
	}
}

func TestCBCMACBadKey(t *testing.T) {
	if _, err := NewCBCMAC(make([]byte, 5)); err == nil {
		t.Error("short MAC key accepted")
	}
}

func TestHMACProperty(t *testing.T) {
	f := func(key, msg []byte) bool {
		if len(key) == 0 {
			key = []byte{0}
		}
		got := HMAC(key, msg)
		ref := stdhmac.New(stdsha.New, key)
		ref.Write(msg)
		return bytes.Equal(got[:], ref.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSHA256(b *testing.B) {
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum256(msg)
	}
}

func BenchmarkCBCMACLine(b *testing.B) {
	m, _ := NewCBCMAC(make([]byte, 8))
	line := make([]byte, 32)
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		m.Sum(line)
	}
}
