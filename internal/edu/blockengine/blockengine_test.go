package blockengine

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/des"
	"repro/internal/edu"
)

func aesEngine(t testing.TB, mode Mode, whole bool) *Engine {
	t.Helper()
	c, err := aes.New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Cipher: c, Mode: mode,
		Timing:         edu.PipelineTiming{Latency: 14, II: 1},
		Gates:          200000,
		Salt:           7,
		WholeLineStall: whole,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil cipher accepted")
	}
	c, _ := aes.New(make([]byte, 16))
	if _, err := New(Config{Cipher: c}); err == nil {
		t.Error("zero timing accepted")
	}
	if _, err := New(Config{Cipher: c, Timing: edu.PipelineTiming{Latency: 1, II: 1}, Mode: Mode(9)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestDefaultNameAndModeString(t *testing.T) {
	c, _ := aes.New(make([]byte, 16))
	e, err := New(Config{Cipher: c, Timing: edu.PipelineTiming{Latency: 1, II: 1}, Mode: LineCBC})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "block-line-CBC" {
		t.Errorf("default name = %q", e.Name())
	}
	if ECB.String() != "ECB" || CTR.String() != "CTR" || Mode(9).String() != "unknown" {
		t.Error("mode strings wrong")
	}
	if e.cfg.Mode != LineCBC {
		t.Error("default mode wrong")
	}
}

func TestRoundtripAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mode := range []Mode{ECB, LineCBC, CTR} {
		e := aesEngine(t, mode, false)
		for trial := 0; trial < 30; trial++ {
			line := make([]byte, 32)
			rng.Read(line)
			addr := uint64(rng.Intn(1<<20)) &^ 31
			ct := make([]byte, 32)
			e.EncryptLine(addr, ct, line)
			if bytes.Equal(ct, line) {
				t.Errorf("%s: ciphertext equals plaintext", mode)
			}
			back := make([]byte, 32)
			e.DecryptLine(addr, back, ct)
			if !bytes.Equal(back, line) {
				t.Fatalf("%s: roundtrip failed at %#x", mode, addr)
			}
		}
	}
}

// ECB determinism vs LineCBC/CTR address binding — the survey's E4 story
// at engine level.
func TestECBLeaksLineCBCDoesNot(t *testing.T) {
	line := bytes.Repeat([]byte{0x42}, 32)
	ecb := aesEngine(t, ECB, false)
	c1 := make([]byte, 32)
	c2 := make([]byte, 32)
	ecb.EncryptLine(0x1000, c1, line)
	ecb.EncryptLine(0x2000, c2, line)
	if !bytes.Equal(c1, c2) {
		t.Error("ECB should repeat for equal plaintext")
	}
	lcbc := aesEngine(t, LineCBC, false)
	lcbc.EncryptLine(0x1000, c1, line)
	lcbc.EncryptLine(0x2000, c2, line)
	if bytes.Equal(c1, c2) {
		t.Error("LineCBC repeated across addresses")
	}
	ctr := aesEngine(t, CTR, false)
	ctr.EncryptLine(0x1000, c1, line)
	ctr.EncryptLine(0x2000, c2, line)
	if bytes.Equal(c1, c2) {
		t.Error("CTR repeated across addresses")
	}
}

func TestBlockBytesAndRMW(t *testing.T) {
	ecb := aesEngine(t, ECB, false)
	if ecb.BlockBytes() != 16 {
		t.Errorf("ECB granule = %d", ecb.BlockBytes())
	}
	if !ecb.NeedsRMW(4) || ecb.NeedsRMW(16) {
		t.Error("ECB RMW predicate wrong")
	}
	ctr := aesEngine(t, CTR, false)
	if ctr.BlockBytes() != 1 {
		t.Errorf("CTR granule = %d", ctr.BlockBytes())
	}
	if ctr.NeedsRMW(1) {
		t.Error("CTR should never RMW")
	}
}

// CTR overlaps the pad with the fetch: fast transfer exposes pad time,
// slow transfer hides it completely.
func TestCTROverlap(t *testing.T) {
	e := aesEngine(t, CTR, false)
	// 32-byte line = 2 AES blocks; pad pipeline = 14 + 1 = 15 cycles.
	if got := e.ReadExtraCycles(0, 32, 100); got != 1 {
		t.Errorf("slow bus: extra = %d, want 1 (fully hidden)", got)
	}
	if got := e.ReadExtraCycles(0, 32, 5); got != 15-5+1 {
		t.Errorf("fast bus: extra = %d, want %d", got, 15-5+1)
	}
	if got := e.WriteExtraCycles(0, 32); got != 1 {
		t.Errorf("CTR write extra = %d, want 1", got)
	}
}

// Whole-line stall (AEGIS) must cost at least as much as
// critical-word-first (ECB-style forwarding).
func TestWholeLineStallCostsMore(t *testing.T) {
	cwf := aesEngine(t, LineCBC, false)
	whole := aesEngine(t, LineCBC, true)
	transfer := uint64(20)
	a := cwf.ReadExtraCycles(0, 64, transfer)
	b := whole.ReadExtraCycles(0, 64, transfer)
	if b < a {
		t.Errorf("whole-line (%d) cheaper than critical-word-first (%d)", b, a)
	}
}

// CBC encryption is serial: write cost scales with block count at full
// latency each.
func TestLineCBCSerialWrites(t *testing.T) {
	e := aesEngine(t, LineCBC, false)
	w32 := e.WriteExtraCycles(0, 32) // 2 blocks
	w64 := e.WriteExtraCycles(0, 64) // 4 blocks
	if w32 != 2*14 || w64 != 4*14 {
		t.Errorf("serial CBC writes: got %d/%d, want 28/56", w32, w64)
	}
	// ECB pipelines: much cheaper for the same line.
	ecb := aesEngine(t, ECB, false)
	if ecb.WriteExtraCycles(0, 64) >= w64 {
		t.Error("ECB writes should be cheaper than serial CBC")
	}
}

func TestWithDESCore(t *testing.T) {
	c, err := des.NewTriple(make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Cipher: c, Mode: ECB,
		Timing: edu.PipelineTiming{Latency: 48, II: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 32)
	rand.New(rand.NewSource(2)).Read(line)
	ct := make([]byte, 32)
	e.EncryptLine(0, ct, line)
	back := make([]byte, 32)
	e.DecryptLine(0, back, ct)
	if !bytes.Equal(back, line) {
		t.Error("3-DES engine roundtrip failed")
	}
	if e.BlockBytes() != 8 {
		t.Errorf("granule = %d, want 8", e.BlockBytes())
	}
}

func TestPlacementAndGates(t *testing.T) {
	e := aesEngine(t, ECB, false)
	if e.Gates() != 200000 {
		t.Error("gates wrong")
	}
	if e.PerAccessCycles() != 0 {
		t.Error("per-access cycles nonzero")
	}
}
