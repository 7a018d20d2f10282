package attack

import (
	"bytes"
	"testing"

	"repro/internal/edu"
	"repro/internal/edu/products"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
)

// buildSystem installs image at 0 on a system with eng and ver (nil:
// no authentication).
func buildSystem(t *testing.T, eng edu.Engine, ver edu.Verifier, image []byte) *soc.SoC {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Engine = eng
	cfg.Verifier = ver
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadImage(0, image); err != nil {
		t.Fatal(err)
	}
	return s
}

func aegisEngine(t *testing.T) edu.Engine {
	t.Helper()
	e, err := products.AEGIS(make([]byte, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// xomEngine is a stateless (ECB) engine, so replay outcomes reflect
// the authenticator alone, not an engine's IV counters.
func xomEngine(t *testing.T) edu.Engine {
	t.Helper()
	e, err := products.XOM(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// macVerifier is a flat HMAC authenticator, with on-chip freshness
// counters when fresh.
func macVerifier(t *testing.T, fresh bool) edu.Verifier {
	t.Helper()
	v, err := authtree.NewFlat(authtree.FlatConfig{
		Key: []byte("tag-key"), HMAC: true, Fresh: fresh, ProtectedLines: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func image() []byte {
	return bytes.Repeat([]byte("GENUINE FIRMWARE LINE 32 BYTES! "), 16)
}

func TestSpoofAgainstConfidentialityOnly(t *testing.T) {
	s := buildSystem(t, aegisEngine(t), nil, image())
	out := Spoof(s, 0x40, bytes.Repeat([]byte{0xEE}, 32))
	if !out.Accepted {
		t.Errorf("confidentiality-only engine should consume spoofed data: %s", out.Detail)
	}
}

func TestSpoofAgainstIntegrity(t *testing.T) {
	s := buildSystem(t, aegisEngine(t), macVerifier(t, false), image())
	out := Spoof(s, 0x40, bytes.Repeat([]byte{0xEE}, 32))
	if out.Accepted {
		t.Errorf("MAC verifier accepted spoofed data: %s", out.Detail)
	}
}

func TestSpliceOutcomes(t *testing.T) {
	img := append(bytes.Repeat([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), 1),
		bytes.Repeat([]byte("BBBBBBBBBBBBBBBBBBBBBBBBBBBBBBBB"), 1)...)

	// ECB: relocation accepted verbatim (no address binding at all).
	s := buildSystem(t, xomEngine(t), nil, img) // XOM model = ECB AES
	out := Splice(s, 0x00, 0x20, 32)
	if !out.Accepted || out.Detail != "relocated code accepted verbatim (no address binding)" {
		t.Errorf("ECB splice: %+v", out)
	}

	// AEGIS: address-bound IVs garble it, but the CPU still consumes it.
	s = buildSystem(t, aegisEngine(t), nil, img)
	out = Splice(s, 0x00, 0x20, 32)
	if !out.Accepted {
		t.Errorf("address binding alone should not DETECT, only garble: %+v", out)
	}

	// Authenticated: detected and zeroed, although the tag moved too.
	s = buildSystem(t, aegisEngine(t), macVerifier(t, false), img)
	out = Splice(s, 0x00, 0x20, 32)
	if out.Accepted {
		t.Errorf("authenticated splice accepted: %+v", out)
	}
}

func TestReplayOutcomes(t *testing.T) {
	balance := func(v byte) []byte { return bytes.Repeat([]byte{v}, 32) }

	run := func(eng edu.Engine, ver edu.Verifier) TamperOutcome {
		s := buildSystem(t, eng, ver, balance(100))
		return Replay(s, 0, 32, func() {
			// Legitimate update: spend the balance via the engine.
			if err := s.LoadImage(0, balance(0)); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Stateless engine (ECB): the authenticator alone decides the
	// outcome.
	if out := run(xomEngine(t), nil); !out.Accepted {
		t.Errorf("plain stateless engine should accept the rollback: %+v", out)
	}
	if out := run(xomEngine(t), macVerifier(t, false)); !out.Accepted {
		t.Errorf("MAC-only should accept the rollback (stale tag replayed too): %+v", out)
	}
	if out := run(xomEngine(t), macVerifier(t, true)); out.Accepted {
		t.Errorf("freshness should reject the rollback: %+v", out)
	}
	// AEGIS's counter IVs garble the stale line, but the verifier tags
	// ciphertext, so the consistent stale (line, tag) pair still passes:
	// the CPU consumes garbage. Only freshness detects the rollback.
	if out := run(aegisEngine(t), macVerifier(t, false)); !out.Accepted || out.Detail != "stale ciphertext consumed as garbage" {
		t.Errorf("counter-IV engine under MAC-only: %+v, want garbage consumed", out)
	}
}

func TestSpoofNoopDetection(t *testing.T) {
	// Writing back the very same ciphertext is not a change; the helper
	// must report "unchanged" rather than a false success.
	s := buildSystem(t, aegisEngine(t), nil, image())
	same := s.DRAM().Dump(0x40, 32)
	out := Spoof(s, 0x40, same)
	if out.Accepted {
		t.Errorf("no-op spoof misreported: %+v", out)
	}
}
