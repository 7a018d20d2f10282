package compressengine

import (
	"bytes"
	"testing"

	"repro/internal/compress"
	"repro/internal/edu/products"
	"repro/internal/sim/addrmap"
)

func newCodec(t testing.TB) (*compress.Codec, float64) {
	t.Helper()
	prog := compress.SyntheticProgram(64<<10, 42)
	c, err := compress.Train(prog)
	if err != nil {
		t.Fatal(err)
	}
	im, err := c.Compress(prog)
	if err != nil {
		t.Fatal(err)
	}
	return c, im.Ratio()
}

func TestValidation(t *testing.T) {
	codec, _ := newCodec(t)
	bad := []Config{
		{},
		{Codec: codec, Ratio: 0.9},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCompressionOnlyIdentityTransform(t *testing.T) {
	codec, ratio := newCodec(t)
	e, err := New(Config{Codec: codec, Ratio: ratio})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "codepack" || e.BlockBytes() != 1 || e.NeedsRMW(1) {
		t.Error("identity wrong")
	}
	line := []byte("a 32-byte line of program text..")
	dst := make([]byte, 32)
	e.EncryptLine(0, dst, line)
	if !bytes.Equal(dst, line) {
		t.Error("compression-only engine must not transform data bytes")
	}
	if e.Gates() != 20000 || e.PerAccessCycles() != 0 {
		t.Error("accessors wrong")
	}
	if e.WriteExtraCycles(0, 32) != 0 {
		t.Error("compression-only writes must be free")
	}
}

func TestTransferBytesShrinksCodeOnly(t *testing.T) {
	codec, ratio := newCodec(t)
	e, _ := New(Config{Codec: codec, Ratio: ratio})
	code := e.TransferBytes(0x1000, 32)
	if code >= 32 || code < 32/2 {
		t.Errorf("code transfer size %d implausible for ratio %.2f", code, ratio)
	}
	if e.TransferBytes(addrmap.CodeLimit+0x1000, 32) != 32 {
		t.Error("data lines must move uncompressed")
	}
}

func TestDecodeOverlap(t *testing.T) {
	codec, ratio := newCodec(t)
	e, _ := New(Config{Codec: codec, Ratio: ratio})
	// Slow transfer hides the decode: only startup shows.
	slow := e.ReadExtraCycles(0, 32, 100)
	if slow != DecodeStartupCycles {
		t.Errorf("slow-bus decode cost %d, want %d", slow, DecodeStartupCycles)
	}
	// Fast transfer exposes the decode-rate shortfall.
	fast := e.ReadExtraCycles(0, 32, 2)
	if fast <= slow {
		t.Error("fast bus should expose decode time")
	}
	// Data lines cost nothing.
	if e.ReadExtraCycles(addrmap.CodeLimit+64, 32, 2) != 0 {
		t.Error("data fill should be free in compression-only mode")
	}
}

func TestComposedWithEncryption(t *testing.T) {
	codec, ratio := newCodec(t)
	inner, err := products.XOM(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Codec: codec, Ratio: ratio, Inner: inner})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "codepack+xom-aes" {
		t.Errorf("name %q", e.Name())
	}
	if e.Gates() <= 20000 {
		t.Error("inner gates not included")
	}
	if e.BlockBytes() != inner.BlockBytes() {
		t.Error("granule must come from the inner engine")
	}
	if !e.NeedsRMW(4) {
		t.Error("inner RMW predicate must propagate")
	}

	// The data path is the inner cipher: roundtrip through it.
	line := []byte("32 bytes of enciphered program..")
	ct := make([]byte, 32)
	e.EncryptLine(0x40, ct, line)
	if bytes.Equal(ct, line) {
		t.Error("composed engine did not encrypt")
	}
	back := make([]byte, 32)
	e.DecryptLine(0x40, back, ct)
	if !bytes.Equal(back, line) {
		t.Error("composed roundtrip failed")
	}

	// Fill cost includes both stages; write cost is the inner engine on
	// the compressed payload.
	if e.ReadExtraCycles(0, 32, 50) <= DecodeStartupCycles {
		t.Error("inner read cost missing")
	}
	if e.WriteExtraCycles(0, 32) == 0 {
		t.Error("inner write cost missing")
	}
}
