package cacheside

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/stream"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	pads := stream.NewPadSource(0xcafe, 32)
	e, err := New(Config{Pads: pads, CacheBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	pads := stream.NewPadSource(1, 32)
	cases := []Config{
		{},
		{Pads: pads, CacheBytes: 0},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestIdentity(t *testing.T) {
	e := newEngine(t)
	if e.Name() != "cpu<->cache stream" || e.BlockBytes() != 1 || e.NeedsRMW(1) {
		t.Error("identity wrong")
	}
}

// §4: "That implies to add an on-chip memory equivalent to the cache
// memory in term of size" — the area must be dominated by the keystream
// store and scale with cache capacity.
func TestKeystreamMemoryDominatesArea(t *testing.T) {
	e := newEngine(t)
	wantMem := 16 * 1024 * GatesPerKeystreamByte
	if e.Gates() != 6000+wantMem {
		t.Errorf("gates = %d, want %d", e.Gates(), 6000+wantMem)
	}
	if e.Gates() < 10*6000 {
		t.Error("keystream store should dominate the generator area")
	}
}

func TestEveryAccessPaysThePenalty(t *testing.T) {
	e := newEngine(t)
	if e.PerAccessCycles() != 1 {
		t.Errorf("per-access = %d, want 1", e.PerAccessCycles())
	}
}

func TestRoundtrip(t *testing.T) {
	e := newEngine(t)
	line := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(line)
	ct := make([]byte, 32)
	e.EncryptLine(0x8000, ct, line)
	if bytes.Equal(ct, line) {
		t.Error("no transformation applied")
	}
	back := make([]byte, 32)
	e.DecryptLine(0x8000, back, ct)
	if !bytes.Equal(back, line) {
		t.Error("roundtrip failed")
	}
}

// The §4 constraint: keystream creation for a line must fit within an
// external fetch or stall the system.
func TestKeystreamGenerationConstraint(t *testing.T) {
	e := newEngine(t)
	if got := e.ReadExtraCycles(0, 32, 40); got != 0 {
		t.Errorf("in-window generation should not stall, got %d", got)
	}
	if got := e.ReadExtraCycles(0, 32, 10); got != 22 {
		t.Errorf("out-of-window generation: got %d, want 22", got)
	}
	if e.WriteExtraCycles(0, 32) != 0 {
		t.Error("outbound lines are already ciphertext; no write cost")
	}
}
