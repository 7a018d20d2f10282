package multikey

import (
	"bytes"
	"testing"

	"repro/internal/edu"
	"repro/internal/edu/products"
)

func domainEngine(t testing.TB, salt uint64) edu.Engine {
	t.Helper()
	key := []byte("0123456789abcdef")
	e, err := products.AEGIS(key, salt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func twoDomains(t testing.TB) *Engine {
	t.Helper()
	e, err := New([]Region{
		{Base: 0x0000, Limit: 0x10000, Engine: domainEngine(t, 1), Name: "procA"},
		{Base: 0x10000, Limit: 0x20000, Engine: domainEngine(t, 2), Name: "procB"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("no regions accepted")
	}
	if _, err := New([]Region{{Base: 0, Limit: 10}}); err == nil {
		t.Error("nil domain engine accepted")
	}
	if _, err := New([]Region{{Base: 10, Limit: 10, Engine: domainEngine(t, 1)}}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := New([]Region{
		{Base: 0, Limit: 0x100, Engine: domainEngine(t, 1), Name: "a"},
		{Base: 0x80, Limit: 0x200, Engine: domainEngine(t, 2), Name: "b"},
	}); err == nil {
		t.Error("overlapping regions accepted")
	}
}

func TestRoutingAndRoundtrip(t *testing.T) {
	e := twoDomains(t)
	line := []byte("a line belonging to process A!!!")[:32]
	ct := make([]byte, 32)
	e.EncryptLine(0x100, ct, line)
	back := make([]byte, 32)
	e.DecryptLine(0x100, back, ct)
	if !bytes.Equal(back, line) {
		t.Fatal("domain A roundtrip failed")
	}
}

// Isolation: the same plaintext in two domains produces different
// ciphertext (different keys), and one domain's ciphertext does not
// decrypt in the other.
func TestDomainIsolation(t *testing.T) {
	e := twoDomains(t)
	line := bytes.Repeat([]byte{0x42}, 32)
	ctA := make([]byte, 32)
	ctB := make([]byte, 32)
	e.EncryptLine(0x0100, ctA, line)  // process A
	e.EncryptLine(0x10100, ctB, line) // process B, same offset
	if bytes.Equal(ctA, ctB) {
		t.Error("two domains produced identical ciphertext for equal plaintext")
	}
}

func TestUnmappedAddressPanics(t *testing.T) {
	e := twoDomains(t)
	defer func() {
		if recover() == nil {
			t.Error("unmapped address did not panic")
		}
	}()
	e.EncryptLine(0x90000, make([]byte, 32), make([]byte, 32))
}

// The context-switch tax: consecutive transfers within one domain are
// free of reload cost; crossing domains pays switchCycles.
func TestSwitchCostCharging(t *testing.T) {
	e := twoDomains(t)
	inner := domainEngine(t, 1)
	base := inner.ReadExtraCycles(0x100, 32, 40)

	first := e.ReadExtraCycles(0x100, 32, 40) // loads A (no prior key)
	if first != base {
		t.Errorf("first access cost %d, want %d (no switch yet)", first, base)
	}
	same := e.ReadExtraCycles(0x200, 32, 40) // still A
	if same != base {
		t.Errorf("same-domain cost %d, want %d", same, base)
	}
	cross := e.ReadExtraCycles(0x10100, 32, 40) // B: reload
	if cross != base+switchCycles {
		t.Errorf("cross-domain cost %d, want %d", cross, base+switchCycles)
	}
	back := e.ReadExtraCycles(0x300, 32, 40) // back to A: reload again
	if back != base+switchCycles {
		t.Errorf("return cost %d, want %d", back, base+switchCycles)
	}
	if e.Switches != 2 {
		t.Errorf("switches = %d, want 2", e.Switches)
	}
	if r := e.SwitchRate(4); r != 0.5 {
		t.Errorf("switch rate %v, want 0.5", r)
	}
	if e.SwitchRate(0) != 0 {
		t.Error("zero-transfer rate guard missing")
	}
}

func TestWriteSwitchCost(t *testing.T) {
	e := twoDomains(t)
	inner := domainEngine(t, 1)
	base := inner.WriteExtraCycles(0x100, 32)
	e.WriteExtraCycles(0x100, 32)
	got := e.WriteExtraCycles(0x10100, 32)
	innerB := domainEngine(t, 2)
	if got != innerB.WriteExtraCycles(0x10100, 32)+switchCycles {
		t.Errorf("cross-domain write cost %d (domain base %d)", got, base)
	}
}

func TestAggregateAccessors(t *testing.T) {
	e := twoDomains(t)
	if e.Name() != "multikey[2 domains]" {
		t.Errorf("name %q", e.Name())
	}
	if e.BlockBytes() != 16 {
		t.Errorf("granule %d, want the domains' max (16)", e.BlockBytes())
	}
	if e.Gates() <= 300_000 || e.Gates() >= 2*300_000 {
		t.Errorf("gates %d: want shared core + key RAM, not per-domain duplication", e.Gates())
	}
	if !e.NeedsRMW(4) || e.NeedsRMW(16) {
		t.Error("RMW predicate should be conservative over domains")
	}
	if e.PerAccessCycles() != 0 {
		t.Error("per-access cycles nonzero")
	}
}
