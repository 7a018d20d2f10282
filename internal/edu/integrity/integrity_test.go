package integrity

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/modes"
	"repro/internal/edu"
	"repro/internal/edu/products"
)

func inner(t testing.TB) edu.Engine {
	t.Helper()
	e, err := products.AEGIS(make([]byte, 16), modes.IVCounter, 3)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newEngine(t testing.TB, level Level) *Engine {
	t.Helper()
	e, err := New(Config{
		Inner: inner(t), MACKey: []byte("integrity-key"),
		Level: level, ProtectedLines: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := New(Config{Inner: inner(t)}); err == nil {
		t.Error("empty MAC key accepted")
	}
	if _, err := New(Config{Inner: inner(t), MACKey: []byte("k"), MACCycles: -1}); err == nil {
		t.Error("negative MAC cost accepted")
	}
	if _, err := New(Config{Inner: inner(t), MACKey: []byte("k"), Level: MACWithFreshness}); err == nil {
		t.Error("freshness without a counter-table bound accepted")
	}
}

func TestIdentity(t *testing.T) {
	e := newEngine(t, MACWithFreshness)
	if e.Name() != "aegis-aes-cbc+mac+freshness" {
		t.Errorf("name %q", e.Name())
	}
	if e.BlockBytes() != 16 {
		t.Error("delegation wrong")
	}
	if MACOnly.String() != "mac" || MACWithFreshness.String() != "mac+freshness" {
		t.Error("level names wrong")
	}
}

func TestGatesIncludeCounterTable(t *testing.T) {
	macOnly := newEngine(t, MACOnly)
	fresh := newEngine(t, MACWithFreshness)
	if fresh.Gates() <= macOnly.Gates() {
		t.Error("freshness counter table must cost area")
	}
	if macOnly.Gates() <= 300_000 {
		t.Error("MAC datapath area missing")
	}
}

func TestRoundtripVerifies(t *testing.T) {
	e := newEngine(t, MACWithFreshness)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		addr := uint64(rng.Intn(1<<16)) &^ 31
		line := make([]byte, 32)
		rng.Read(line)
		ct := make([]byte, 32)
		e.EncryptLine(addr, ct, line)
		back := make([]byte, 32)
		e.DecryptLine(addr, back, ct)
		if !bytes.Equal(back, line) {
			t.Fatalf("roundtrip failed at %#x", addr)
		}
	}
	if e.Violations != 0 || e.Verified == 0 {
		t.Errorf("stats: %d violations, %d verified", e.Violations, e.Verified)
	}
}

func TestSpoofedLineFailsStop(t *testing.T) {
	e := newEngine(t, MACOnly)
	line := []byte("genuine firmware line, 32 bytes!")
	ct := make([]byte, 32)
	e.EncryptLine(0x1000, ct, line)

	// The attacker flips a ciphertext bit.
	ct[7] ^= 0x80
	out := make([]byte, 32)
	e.DecryptLine(0x1000, out, ct)
	if !allZeroT(out) {
		t.Error("tampered line was not zeroed")
	}
	if e.Violations != 1 {
		t.Errorf("violations = %d", e.Violations)
	}
}

func TestSplicedLineFailsEvenWithTag(t *testing.T) {
	e := newEngine(t, MACOnly)
	line := []byte("line that lives at address 0x40!")
	ct := make([]byte, 32)
	e.EncryptLine(0x40, ct, line)

	// Relocate ciphertext AND tag to 0x80 (the thorough splice).
	tag, _ := e.TagAt(0x40)
	e.TamperTag(0x80, tag)
	out := make([]byte, 32)
	e.DecryptLine(0x80, out, ct)
	if !allZeroT(out) {
		t.Error("spliced line accepted despite address-bound MAC")
	}
}

// statelessEngine returns an inner engine with no IV state (XOM's ECB
// AES): replayed ciphertext decrypts to the stale plaintext, exposing
// the pure MAC-only replay gap.
func statelessEngine(t testing.TB, level Level) *Engine {
	t.Helper()
	in, err := products.XOM(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Inner: in, MACKey: []byte("integrity-key"),
		Level: level, ProtectedLines: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReplayStoppedOnlyByFreshness(t *testing.T) {
	run := func(level Level) (staleAccepted bool) {
		e := statelessEngine(t, level)
		v1 := []byte("account balance: 100 credits    ")
		v2 := []byte("account balance: 000 credits    ")
		ct1 := make([]byte, 32)
		e.EncryptLine(0x200, ct1, v1)
		tag1, _ := e.TagAt(0x200)

		// Legitimate update spends the credits...
		ct2 := make([]byte, 32)
		e.EncryptLine(0x200, ct2, v2)

		// ...and the attacker restores the stale ciphertext + tag.
		e.TamperTag(0x200, tag1)
		out := make([]byte, 32)
		e.DecryptLine(0x200, out, ct1)
		return bytes.Equal(out, v1)
	}
	if !run(MACOnly) {
		t.Error("MAC-only should ACCEPT the replay (that is its gap)")
	}
	if run(MACWithFreshness) {
		t.Error("freshness should reject the replay")
	}
}

// AEGIS's counter IVs give implicit replay resistance even under a
// MAC-only wrapper: the stale ciphertext decrypts with the NEW counter's
// IV and fails the MAC.
func TestCounterIVInnerResistsReplayImplicitly(t *testing.T) {
	e := newEngine(t, MACOnly) // inner = AEGIS with IVCounter
	v1 := []byte("account balance: 100 credits    ")
	v2 := []byte("account balance: 000 credits    ")
	ct1 := make([]byte, 32)
	e.EncryptLine(0x200, ct1, v1)
	tag1, _ := e.TagAt(0x200)
	ct2 := make([]byte, 32)
	e.EncryptLine(0x200, ct2, v2)
	e.TamperTag(0x200, tag1)
	out := make([]byte, 32)
	e.DecryptLine(0x200, out, ct1)
	if bytes.Equal(out, v1) {
		t.Error("replay succeeded despite counter-IV inner engine")
	}
}

func TestTimingAdditive(t *testing.T) {
	in := inner(t)
	e, err := New(Config{Inner: in, MACKey: []byte("k"), MACCycles: 8})
	if err != nil {
		t.Fatal(err)
	}
	base := in.ReadExtraCycles(0, 32, 50)
	if got := e.ReadExtraCycles(0, 32, 50); got != base+8 {
		t.Errorf("read extra %d, want %d", got, base+8)
	}
	fresh := newEngine(t, MACWithFreshness)
	if fresh.ReadExtraCycles(0, 32, 50) != base+8+1 {
		t.Error("freshness lookup cycle missing")
	}
	if e.WriteExtraCycles(0, 32) != in.WriteExtraCycles(0, 32)+8 {
		t.Error("write extra wrong")
	}
}

func TestRMWStricter(t *testing.T) {
	e := newEngine(t, MACOnly)
	// Any write below the tag granule must RMW even if the inner engine
	// would not care.
	if !e.NeedsRMW(4) {
		t.Error("sub-tag write should RMW")
	}
}

func TestFirstSightEnrollment(t *testing.T) {
	e := newEngine(t, MACOnly)
	// Decrypt a line never written through the engine: enrolled, not a
	// violation.
	out := make([]byte, 32)
	e.DecryptLine(0x9000, out, make([]byte, 32))
	if e.Violations != 0 || e.Verified != 1 {
		t.Errorf("enrollment: %d violations %d verified", e.Violations, e.Verified)
	}
	// Tampering after enrollment is caught.
	ct := make([]byte, 32)
	ct[0] = 0xFF
	e.DecryptLine(0x9000, out, ct)
	if e.Violations != 1 {
		t.Error("post-enrollment tamper missed")
	}
}

func allZeroT(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
