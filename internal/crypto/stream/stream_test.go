package stream

import (
	"bytes"
	"math/bits"
	"testing"
)

// refLFSR is the bit-serial reference register the byte-stepped
// generator must equal: a right-shift Fibonacci LFSR for
// x^64 + x^63 + x^61 + x^60 + 1, taps at bit offsets 0,1,3,4 from the
// output end (mask 0b11011).
type refLFSR struct{ state uint64 }

func newRefLFSR(seed uint64) *refLFSR {
	l := &refLFSR{}
	l.reset(seed)
	return l
}

// reset reseeds the register; zero is remapped, as the all-zero state
// is a fixed point.
func (l *refLFSR) reset(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	l.state = seed
}

// step advances one bit and returns it; the parity of the tapped bits
// becomes the new MSB.
func (l *refLFSR) step() byte {
	out := byte(l.state & 1)
	fb := uint64(bits.OnesCount64(l.state&0x1b) & 1)
	l.state = l.state>>1 | fb<<63
	return out
}

// next assembles eight steps into a byte, first bit most significant.
func (l *refLFSR) next() byte {
	var b byte
	for range 8 {
		b = b<<1 | l.step()
	}
	return b
}

// refGeffe is the bit-serial reference combiner
// f(a,b,c) = (a AND b) XOR (NOT a AND c).
type refGeffe struct{ a, b, c refLFSR }

func newRefGeffe(seed uint64) *refGeffe {
	g := &refGeffe{}
	g.reset(seed)
	return g
}

func (g *refGeffe) reset(seed uint64) {
	g.a.reset(seed*0x9e3779b97f4a7c15 + 1)
	g.b.reset(seed*0xbf58476d1ce4e5b9 + 2)
	g.c.reset(seed*0x94d049bb133111eb + 3)
}

func (g *refGeffe) next() byte {
	var out byte
	for range 8 {
		a, b, c := g.a.step(), g.b.step(), g.c.step()
		out = out<<1 | (a&b | (1-a)&c)
	}
	return out
}

// refPad is the reference pad for one line: the first lineSize bytes of
// the bit-serial Geffe stream seeded with secret ^ mix(line).
func refPad(secret, line uint64, lineSize int) []byte {
	g := newRefGeffe(secret ^ mix(line))
	pad := make([]byte, lineSize)
	for i := range pad {
		pad[i] = g.next()
	}
	return pad
}

// pad is PadSource's pad for one line: its XOR of zeros.
func pad(p *PadSource, addr uint64, n int) []byte {
	out := make([]byte, n)
	p.XOR(addr, out, out)
	return out
}

// zeroRegisterSecrets returns, for each register r with multiplier K_r,
// the secret whose line-0 seed s makes s*K_r + r+1 == 0: the one state
// the generator remaps to 1.
func zeroRegisterSecrets() []uint64 {
	var out []uint64
	for r, k := range []uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb} {
		inv := k // Newton's iteration for k⁻¹ mod 2^64 (k is odd)
		for range 6 {
			inv *= 2 - k*inv
		}
		out = append(out, (-uint64(r+1)*inv)^mix(0))
	}
	return out
}

func TestZeroRegisterSecretsHitZero(t *testing.T) {
	ks := []uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
	for r, secret := range zeroRegisterSecrets() {
		if s := secret ^ mix(0); s*ks[r]+uint64(r+1) != 0 {
			t.Errorf("register %d: secret %#x does not zero its seed", r, secret)
		}
	}
}

// The byte-stepped pads must equal the bit-serial oracle's, byte for
// byte, at every line size the engines use, including the secrets that
// start one register at the remapped zero state.
func TestPadSourceMatchesOracle(t *testing.T) {
	var secrets []uint64
	for s := range uint64(200) {
		secrets = append(secrets, s*0x2545f4914f6cdd1d)
	}
	secrets = append(secrets, zeroRegisterSecrets()...)
	for _, ls := range []int{16, 32, 64} {
		for _, secret := range secrets {
			p := NewPadSource(secret, ls)
			for line := range uint64(100) {
				if got, want := pad(p, line*uint64(ls), ls), refPad(secret, line, ls); !bytes.Equal(got, want) {
					t.Fatalf("secret %#x line %d size %d: pad %x, oracle %x", secret, line, ls, got, want)
				}
			}
		}
	}
}

// XOR indexes the pad by address: an unaligned or multi-line slice gets
// the pad bytes of the lines and offsets it covers.
func TestPadSourceXORIsAddressIndexed(t *testing.T) {
	const ls = 32
	p := NewPadSource(0x5ec7e7, ls)
	want := append(refPad(0x5ec7e7, 0x80, ls), refPad(0x5ec7e7, 0x81, ls)...)
	want = append(want, refPad(0x5ec7e7, 0x82, ls)...)
	for _, off := range []int{0, 1, 17, 31, 32, 40} {
		for _, n := range []int{1, 15, 32, 33, 50} {
			if got := pad(p, 0x1000+uint64(off), n); !bytes.Equal(got, want[off:off+n]) {
				t.Errorf("offset %d, %d bytes: %x, want %x", off, n, got, want[off:off+n])
			}
		}
	}
	src := bytes.Repeat([]byte{0xa5}, 3*ls)
	ct := make([]byte, len(src))
	p.XOR(0x1000, ct, src)
	for i := range ct {
		if ct[i] != src[i]^want[i] {
			t.Fatalf("byte %d: %#x, want %#x", i, ct[i], src[i]^want[i])
		}
	}
	p.XOR(0x1000, ct, ct)
	if !bytes.Equal(ct, src) {
		t.Error("XOR in place is not its own inverse")
	}
}

func FuzzPadSource(f *testing.F) {
	for s := range uint64(4) {
		f.Add(s, uint64(0), uint8(1))
	}
	for _, s := range zeroRegisterSecrets() {
		f.Add(s, uint64(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, secret, line uint64, size uint8) {
		ls := []int{16, 32, 64}[size%3]
		line &= 1<<57 - 1 // line*ls must not wrap
		got := pad(NewPadSource(secret, ls), line*uint64(ls), ls)
		if want := refPad(secret, line, ls); !bytes.Equal(got, want) {
			t.Fatalf("secret %#x line %d size %d: pad %x, oracle %x", secret, line, ls, got, want)
		}
	})
}

func TestLFSRDeterministicAndNonTrivial(t *testing.T) {
	a := newRefLFSR(12345)
	b := newRefLFSR(12345)
	out := make([]byte, 64)
	out2 := make([]byte, 64)
	for i := range out {
		out[i] = a.next()
		out2[i] = b.next()
	}
	if !bytes.Equal(out, out2) {
		t.Error("same seed gave different streams")
	}
	if bytes.Count(out, out[:1]) == len(out) {
		t.Error("LFSR output is constant")
	}
}

func TestLFSRZeroSeedIsRemapped(t *testing.T) {
	l := newRefLFSR(0)
	var acc byte
	for range 32 {
		acc |= l.next()
	}
	if acc == 0 {
		t.Error("zero seed produced the all-zero fixed point")
	}
}

func TestLFSRPeriodIsLong(t *testing.T) {
	// A 64-bit maximal LFSR must not revisit its start state quickly.
	l := newRefLFSR(777)
	start := l.state
	for i := range 100000 {
		l.step()
		if l.state == start {
			t.Fatalf("LFSR state repeated after %d steps", i+1)
		}
	}
}

func TestGeffeDiffersFromComponents(t *testing.T) {
	g := newRefGeffe(42)
	l := newRefLFSR(42)
	same := 0
	for range 256 {
		if g.next() == l.next() {
			same++
		}
	}
	if same > 64 { // far more agreement than chance would give
		t.Errorf("Geffe output suspiciously close to plain LFSR: %d/256 equal bytes", same)
	}
}

func TestGeffeResetReproduces(t *testing.T) {
	g := newRefGeffe(9)
	first := make([]byte, 32)
	for i := range first {
		first[i] = g.next()
	}
	g.reset(9)
	second := make([]byte, 32)
	for i := range second {
		second[i] = g.next()
	}
	if !bytes.Equal(first, second) {
		t.Error("reset did not reproduce the stream")
	}
}

func TestPadSourceProperties(t *testing.T) {
	p := NewPadSource(0x5ec7e7, 32)

	// Determinism per line.
	a := pad(p, 0x1000, 32)
	if !bytes.Equal(a, pad(p, 0x1000, 32)) {
		t.Error("pad for same line not deterministic")
	}

	// An address inside the line selects that line's pad at its offset.
	if !bytes.Equal(a[16:], pad(p, 0x1010, 16)) {
		t.Error("addresses within a line must share the pad")
	}

	// Adjacent lines differ.
	if bytes.Equal(a, pad(p, 0x1020, 32)) {
		t.Error("adjacent lines share a pad")
	}
}

func TestPadSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero line size did not panic")
		}
	}()
	NewPadSource(1, 0)
}

func TestPadSourceWrongBufferPanics(t *testing.T) {
	p := NewPadSource(1, 16)
	defer func() {
		if recover() == nil {
			t.Error("dst shorter than src did not panic")
		}
	}()
	p.XOR(0, make([]byte, 8), make([]byte, 16))
}

// Crude balance check: pads should be roughly half ones.
func TestKeystreamBitBalance(t *testing.T) {
	const n = 4096
	ones := 0
	for _, b := range pad(NewPadSource(31337, 32), 0, n) {
		ones += bits.OnesCount8(b)
	}
	if total := n * 8; ones < total*45/100 || ones > total*55/100 {
		t.Errorf("bit balance off: %d/%d ones", ones, total)
	}
}

func BenchmarkPadSourceXOR(b *testing.B) {
	p := NewPadSource(1, 32)
	line := make([]byte, 32)
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		p.XOR(uint64(i)*32, line, line)
	}
}
