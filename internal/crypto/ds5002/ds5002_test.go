package ds5002

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newPart(t testing.TB) *DS5002 {
	t.Helper()
	d, err := NewDS5002([]byte("battery!"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKeyValidation(t *testing.T) {
	if _, err := NewDS5002(make([]byte, 4)); err == nil {
		t.Error("short DS5002 key accepted")
	}
	if _, err := NewDS5240(make([]byte, 12)); err == nil {
		t.Error("12-byte DS5240 key accepted")
	}
	for _, n := range []int{8, 16, 24} {
		if _, err := NewDS5240(make([]byte, n)); err != nil {
			t.Errorf("NewDS5240(%d bytes): %v", n, err)
		}
	}
}

func TestByteRoundtrip(t *testing.T) {
	d := newPart(t)
	for addr := 0; addr < 1024; addr++ {
		for _, v := range []byte{0x00, 0x74, 0xFF, 0xA5} {
			ct := d.EncryptByte(uint16(addr), v)
			if d.DecryptByte(uint16(addr), ct) != v {
				t.Fatalf("byte roundtrip failed at addr %#x value %#x", addr, v)
			}
		}
	}
}

func TestByteRoundtripProperty(t *testing.T) {
	d := newPart(t)
	f := func(addr uint16, v byte) bool {
		return d.DecryptByte(addr, d.EncryptByte(addr, v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// The structural fact Kuhn exploited: for a fixed address the cipher is a
// byte bijection, so 256 guesses exhaust it.
func TestPerAddressBijection(t *testing.T) {
	d := newPart(t)
	for _, addr := range []uint16{0x0000, 0x1234, 0xFFFF} {
		var seen [256]bool
		for v := 0; v < 256; v++ {
			ct := d.EncryptByte(addr, byte(v))
			if seen[ct] {
				t.Fatalf("addr %#x: not a bijection", addr)
			}
			seen[ct] = true
		}
	}
}

// Address dependence: the same value encrypts differently at (almost all)
// different addresses — dumping memory in order yields gibberish.
func TestAddressDependence(t *testing.T) {
	d := newPart(t)
	same := 0
	const n = 4096
	for addr := 0; addr < n; addr++ {
		if d.EncryptByte(uint16(addr), 0x74) == d.EncryptByte(0, 0x74) {
			same++
		}
	}
	if same > n/64 {
		t.Errorf("value 0x74 repeats its addr-0 ciphertext at %d/%d addresses", same, n)
	}
}

func TestAddressScramblerIsPermutation(t *testing.T) {
	d := newPart(t)
	seen := make([]bool, 1<<16)
	for a := 0; a < 1<<16; a++ {
		s := d.scrambleAddr(uint16(a))
		if seen[s] {
			t.Fatalf("address scrambler collides at %#x", a)
		}
		seen[s] = true
	}
}

func TestStoreLoad(t *testing.T) {
	d := newPart(t)
	mem := make([]byte, MemSize)
	program := []byte{0x74, 0x2A, 0xF5, 0x90, 0x80, 0xFB}
	for i, b := range program {
		d.Store(mem, uint16(0x100+i), b)
	}
	for i, want := range program {
		if got := d.Load(mem, uint16(0x100+i)); got != want {
			t.Fatalf("Load(%#x) = %#x, want %#x", 0x100+i, got, want)
		}
	}
	// The raw image must not contain the plaintext sequence.
	if bytes.Contains(mem, program) {
		t.Error("plaintext program visible in external memory image")
	}
}

func TestStoreLoadWrongSizePanics(t *testing.T) {
	d := newPart(t)
	defer func() {
		if recover() == nil {
			t.Error("undersized memory image did not panic")
		}
	}()
	d.Store(make([]byte, 1024), 0, 0)
}

func TestDS5240RoundtripAllKeySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 16, 24} {
		key := make([]byte, n)
		rng.Read(key)
		d, err := NewDS5240(key)
		if err != nil {
			t.Fatal(err)
		}
		if d.BlockSize() != 8 {
			t.Errorf("BlockSize = %d, want 8", d.BlockSize())
		}
		for trial := 0; trial < 50; trial++ {
			addr := uint64(rng.Intn(1<<20)) &^ 7
			pt := make([]byte, 8)
			rng.Read(pt)
			ct := make([]byte, 8)
			d.EncryptBlockAt(addr, ct, pt)
			back := make([]byte, 8)
			d.DecryptBlockAt(addr, back, ct)
			if !bytes.Equal(back, pt) {
				t.Fatalf("key %d bytes: roundtrip failed at %#x", n, addr)
			}
		}
	}
}

// The successor's fix: identical plaintext blocks at different addresses
// produce different bus ciphertext (address tweak), and the block is 64
// bits so Kuhn's 256-way search is hopeless.
func TestDS5240AddressTweak(t *testing.T) {
	d, _ := NewDS5240(make([]byte, 16))
	pt := []byte("MOV A,#5")
	c1 := make([]byte, 8)
	c2 := make([]byte, 8)
	d.EncryptBlockAt(0x0000, c1, pt)
	d.EncryptBlockAt(0x0008, c2, pt)
	if bytes.Equal(c1, c2) {
		t.Error("DS5240 lacks address binding")
	}
}

func TestDS5240Property(t *testing.T) {
	d, _ := NewDS5240([]byte("0123456789abcdef01234567"))
	f := func(pt [8]byte, blockIdx uint32) bool {
		addr := uint64(blockIdx) * 8
		ct := make([]byte, 8)
		d.EncryptBlockAt(addr, ct, pt[:])
		back := make([]byte, 8)
		d.DecryptBlockAt(addr, back, ct)
		return bytes.Equal(back, pt[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDS5002Byte(b *testing.B) {
	d, _ := NewDS5002(make([]byte, 8))
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		d.EncryptByte(uint16(i), byte(i))
	}
}

func BenchmarkDS5240Block(b *testing.B) {
	d, _ := NewDS5240(make([]byte, 24))
	src := make([]byte, 8)
	dst := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		d.EncryptBlockAt(uint64(i)*8, dst, src)
	}
}
