package stream

import (
	"bytes"
	"testing"
)

func TestLFSRDeterministicAndNonTrivial(t *testing.T) {
	a := NewLFSR(12345)
	b := NewLFSR(12345)
	out := make([]byte, 64)
	out2 := make([]byte, 64)
	for i := range out {
		out[i] = a.Next()
		out2[i] = b.Next()
	}
	if !bytes.Equal(out, out2) {
		t.Error("same seed gave different streams")
	}
	allSame := true
	for _, v := range out[1:] {
		if v != out[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("LFSR output is constant")
	}
}

func TestLFSRZeroSeedIsRemapped(t *testing.T) {
	l := NewLFSR(0)
	var acc byte
	for i := 0; i < 32; i++ {
		acc |= l.Next()
	}
	if acc == 0 {
		t.Error("zero seed produced the all-zero fixed point")
	}
}

func TestLFSRPeriodIsLong(t *testing.T) {
	// A 64-bit maximal LFSR must not revisit its start state quickly.
	l := NewLFSR(777)
	start := l.state
	for i := 0; i < 100000; i++ {
		l.Step()
		if l.state == start {
			t.Fatalf("LFSR state repeated after %d steps", i+1)
		}
	}
}

func TestGeffeDiffersFromComponents(t *testing.T) {
	g := NewGeffe(42)
	l := NewLFSR(42)
	same := 0
	for i := 0; i < 256; i++ {
		if g.Next() == l.Next() {
			same++
		}
	}
	if same > 64 { // far more agreement than chance would give
		t.Errorf("Geffe output suspiciously close to plain LFSR: %d/256 equal bytes", same)
	}
}

func TestGeffeResetReproduces(t *testing.T) {
	g := NewGeffe(9)
	first := make([]byte, 32)
	for i := range first {
		first[i] = g.Next()
	}
	g.Reset(9)
	second := make([]byte, 32)
	for i := range second {
		second[i] = g.Next()
	}
	if !bytes.Equal(first, second) {
		t.Error("Reset did not reproduce the stream")
	}
}

func TestPadSourceProperties(t *testing.T) {
	p := NewPadSource(NewGeffe(0), 0x5ec7e7, 32)

	// Determinism per line.
	a := make([]byte, 32)
	b := make([]byte, 32)
	p.Pad(a, 0x1000)
	p.Pad(b, 0x1000)
	if !bytes.Equal(a, b) {
		t.Error("pad for same line not deterministic")
	}

	// Any address inside the same line selects the same pad.
	p.Pad(b, 0x101f)
	if !bytes.Equal(a, b) {
		t.Error("addresses within a line must share the pad")
	}

	// Adjacent lines differ.
	p.Pad(b, 0x1020)
	if bytes.Equal(a, b) {
		t.Error("adjacent lines share a pad")
	}
}

func TestPadSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero line size did not panic")
		}
	}()
	NewPadSource(NewLFSR(1), 1, 0)
}

func TestPadSourceWrongBufferPanics(t *testing.T) {
	p := NewPadSource(NewLFSR(1), 1, 16)
	defer func() {
		if recover() == nil {
			t.Error("wrong pad buffer size did not panic")
		}
	}()
	p.Pad(make([]byte, 8), 0)
}

// Crude balance check: keystreams should be roughly half ones.
func TestKeystreamBitBalance(t *testing.T) {
	for name, ks := range map[string]Keystream{
		"lfsr":  NewLFSR(31337),
		"geffe": NewGeffe(31337),
	} {
		ones := 0
		const n = 4096
		for i := 0; i < n; i++ {
			b := ks.Next()
			for j := 0; j < 8; j++ {
				ones += int(b >> uint(j) & 1)
			}
		}
		total := n * 8
		if ones < total*45/100 || ones > total*55/100 {
			t.Errorf("%s: bit balance off: %d/%d ones", name, ones, total)
		}
	}
}

func BenchmarkGeffePad(b *testing.B) {
	p := NewPadSource(NewGeffe(0), 1, 32)
	pad := make([]byte, 32)
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		p.Pad(pad, uint64(i)*32)
	}
}
