package gilmont

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sim/addrmap"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := New(make([]byte, 5)); err == nil {
		t.Error("bad key accepted")
	}
}

// The fixed core: a fully pipelined 48-stage 3-DES, so one block drains
// in 48 cycles.
func TestDefaults(t *testing.T) {
	e := newEngine(t)
	if got := e.WriteExtraCycles(0, 8); got != 48 {
		t.Errorf("one-block code write = %d cycles, want 48 (pipelined 3-DES)", got)
	}
	if e.Name() != "gilmont-3des" || e.BlockBytes() != 8 {
		t.Error("identity wrong")
	}
	if e.NeedsRMW(1) {
		t.Error("static-code design never faces RMW")
	}
}

func TestCodeCipheredDataClear(t *testing.T) {
	e := newEngine(t)
	line := bytes.Repeat([]byte{0xAB}, 32)

	ct := make([]byte, 32)
	e.EncryptLine(0x1000, ct, line) // code region
	if bytes.Equal(ct, line) {
		t.Error("code line not enciphered")
	}
	back := make([]byte, 32)
	e.DecryptLine(0x1000, back, ct)
	if !bytes.Equal(back, line) {
		t.Error("code roundtrip failed")
	}

	e.EncryptLine(addrmap.CodeLimit+0x1000, ct, line) // data region
	if !bytes.Equal(ct, line) {
		t.Error("data line was transformed (should pass in clear)")
	}
}

// The prediction unit: sequential fetches after the first cost ~1 cycle;
// jumps pay the pipeline fill.
func TestFetchPrediction(t *testing.T) {
	e := newEngine(t)
	const line = 32
	transfer := uint64(20)

	first := e.ReadExtraCycles(0x0000, line, transfer)
	if first != 48 {
		t.Errorf("cold fill extra = %d, want 48", first)
	}
	seq := e.ReadExtraCycles(0x0020, line, transfer)
	if seq != 1 {
		t.Errorf("predicted fill extra = %d, want 1", seq)
	}
	seq2 := e.ReadExtraCycles(0x0040, line, transfer)
	if seq2 != 1 {
		t.Errorf("second predicted fill extra = %d", seq2)
	}
	jump := e.ReadExtraCycles(0x8000, line, transfer)
	if jump != 48 {
		t.Errorf("jump target extra = %d, want 48", jump)
	}
	if e.Hits != 2 || e.Misses != 2 {
		t.Errorf("prediction stats %d/%d, want 2/2", e.Hits, e.Misses)
	}
	if e.PredictionRate() != 0.5 {
		t.Errorf("prediction rate %v", e.PredictionRate())
	}
}

func TestDataReadsFree(t *testing.T) {
	e := newEngine(t)
	if e.ReadExtraCycles(addrmap.CodeLimit+64, 32, 20) != 0 {
		t.Error("data fill should cost nothing")
	}
	if e.WriteExtraCycles(addrmap.CodeLimit+64, 32) != 0 {
		t.Error("data write should cost nothing")
	}
	// A 32-byte code line is four 3-DES blocks through the 48-stage
	// pipeline, one issued per cycle.
	if got := e.WriteExtraCycles(0, 32); got != 48+3 {
		t.Errorf("code write (install path) extra = %d, want 51", got)
	}
}

// High prediction rate on straight-line code is the mechanism behind the
// <2.5% claim; verify the mechanism on a synthetic fetch walk.
func TestSequentialWalkPredictsAlmostAll(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(3))
	addr := uint64(0)
	for i := 0; i < 1000; i++ {
		if rng.Float64() < 0.02 { // rare jump
			addr = uint64(rng.Intn(1<<15)) &^ 31
		}
		e.ReadExtraCycles(addr, 32, 20)
		addr += 32
	}
	if e.PredictionRate() < 0.95 {
		t.Errorf("sequential walk prediction rate %.3f, want > 0.95", e.PredictionRate())
	}
	if e.PerAccessCycles() != 0 || e.Gates() != 120000 {
		t.Error("identity accessors wrong")
	}
}
