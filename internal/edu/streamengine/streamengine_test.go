package streamengine

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/stream"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(stream.NewPadSource(0xfeed, 32))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil pads accepted")
	}
}

func TestIdentityAndDefaults(t *testing.T) {
	e := newEngine(t)
	if e.Name() != "stream" {
		t.Errorf("name %q", e.Name())
	}
	if e.BlockBytes() != 1 || e.Gates() != 6000 {
		t.Error("engine identity wrong")
	}
	if e.NeedsRMW(1) {
		t.Error("stream engine should never RMW")
	}
	if e.PerAccessCycles() != 0 {
		t.Error("per-access cycles nonzero")
	}
}

func TestRoundtripAndAddressBinding(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(1))
	line := make([]byte, 32)
	rng.Read(line)
	c1 := make([]byte, 32)
	c2 := make([]byte, 32)
	e.EncryptLine(0x1000, c1, line)
	e.EncryptLine(0x2000, c2, line)
	if bytes.Equal(c1, c2) {
		t.Error("pads identical across lines")
	}
	back := make([]byte, 32)
	e.DecryptLine(0x1000, back, c1)
	if !bytes.Equal(back, line) {
		t.Error("roundtrip failed")
	}
}

func TestMultiLineTransform(t *testing.T) {
	e := newEngine(t)
	data := make([]byte, 96) // three pad lines
	rand.New(rand.NewSource(2)).Read(data)
	ct := make([]byte, 96)
	e.EncryptLine(0x4000, ct, data)
	back := make([]byte, 96)
	e.DecryptLine(0x4000, back, ct)
	if !bytes.Equal(back, data) {
		t.Error("multi-line roundtrip failed")
	}
	// Each 32-byte segment must match the single-line transform at its
	// own address (random access property).
	seg := make([]byte, 32)
	e.DecryptLine(0x4020, seg, ct[32:64])
	if !bytes.Equal(seg, data[32:64]) {
		t.Error("middle line not independently decryptable")
	}
}

// The §2.2 claim: keystream generation parallelised with the fetch. A
// fetch at least as long as the line's keystream (32 cycles for a
// 32-byte line) hides the generator and costs only the XOR; the §4
// constraint is that a shorter fetch exposes the shortfall.
func TestOverlapTiming(t *testing.T) {
	e := newEngine(t)
	for _, tc := range []struct{ transfer, want uint64 }{
		{40, 1},
		{32, 1},
		{20, 32 - 20 + 1},
		{0, 32 + 1},
	} {
		if got := e.ReadExtraCycles(0, 32, tc.transfer); got != tc.want {
			t.Errorf("fetch of %d cycles: extra = %d, want %d", tc.transfer, got, tc.want)
		}
	}
	if got := e.WriteExtraCycles(0, 32); got != 1 {
		t.Errorf("write extra = %d, want 1", got)
	}
}
