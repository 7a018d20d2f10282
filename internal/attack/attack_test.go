package attack

import (
	"bytes"
	"testing"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/modes"
	"repro/internal/sim/bus"
)

func TestProbeCaptureAndSearch(t *testing.T) {
	p := &Probe{}
	p.Observe(bus.Beat{Dir: bus.Read, Addr: 0x10, Data: []byte("hello ")})
	p.Observe(bus.Beat{Dir: bus.Write, Addr: 0x20, Data: []byte("world")})
	if !p.ContainsPlaintext([]byte("lo wor")) {
		t.Error("cross-beat plaintext not found")
	}
	if p.ContainsPlaintext([]byte("absent")) {
		t.Error("false positive")
	}
	if len(p.Beats) != 2 || p.Beats[0].Addr != 0x10 || p.Beats[1].Addr != 0x20 {
		t.Errorf("captured beats %+v", p.Beats)
	}
}

func TestDuplicateBlockRatio(t *testing.T) {
	// 4 identical 16-byte blocks: 1 unique of 4 → ratio 0.75.
	data := bytes.Repeat([]byte("0123456789abcdef"), 4)
	if got := DuplicateBlockRatio(data, 16); got != 0.75 {
		t.Errorf("ratio = %v, want 0.75", got)
	}
	// All distinct blocks → 0.
	distinct := make([]byte, 64)
	for i := range distinct {
		distinct[i] = byte(i)
	}
	if got := DuplicateBlockRatio(distinct, 16); got != 0 {
		t.Errorf("distinct ratio = %v", got)
	}
	// Degenerate inputs.
	if DuplicateBlockRatio(nil, 16) != 0 || DuplicateBlockRatio(data, 0) != 0 {
		t.Error("degenerate guards missing")
	}
}

// ECB preserves plaintext block equalities; LineCBC destroys them — the
// attack-side view of experiment E4.
func TestECBLeakVisibleThroughAnalysis(t *testing.T) {
	blk, err := aes.New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte("same 16b blocks!"), 32)

	ecbCT := make([]byte, len(plain))
	modes.NewECB(blk).Encrypt(ecbCT, plain)
	if got := DuplicateBlockRatio(ecbCT, 16); got < 0.9 {
		t.Errorf("ECB of repeated plaintext should leak heavily, ratio %v", got)
	}

	lcbc := modes.NewBlockCBC(blk, modes.IVCounter, 5)
	cbcCT := make([]byte, len(plain))
	for off := 0; off < len(plain); off += 32 {
		lcbc.EncryptBlockAt(uint64(off), cbcCT[off:off+32], plain[off:off+32])
	}
	if got := DuplicateBlockRatio(cbcCT, 16); got > 0.05 {
		t.Errorf("address-bound CBC should not leak, ratio %v", got)
	}
}

type rewriteEnc struct {
	bc *modes.BlockCBC
}

func (r rewriteEnc) EncryptLine(addr uint64, dst, src []byte) { r.bc.EncryptBlockAt(addr, dst, src) }

func TestRewriteLeakRandomVsCounterIV(t *testing.T) {
	blk, _ := aes.New(make([]byte, 16))
	line := bytes.Repeat([]byte{0x77}, 32)

	random := rewriteEnc{modes.NewBlockCBC(blk, modes.IVRandom, 9)}
	if got := RewriteLeak(random, 0x1000, line, 10); got != 9 {
		t.Errorf("random IV rewrites: %d repeats, want 9", got)
	}
	counter := rewriteEnc{modes.NewBlockCBC(blk, modes.IVCounter, 9)}
	if got := RewriteLeak(counter, 0x1000, line, 10); got != 0 {
		t.Errorf("counter IV rewrites: %d repeats, want 0", got)
	}
}

func TestBirthdayProbability(t *testing.T) {
	// Degenerate cases.
	if BirthdayCollisionProbability(0, 10) != 0 || BirthdayCollisionProbability(64, 1) != 0 {
		t.Error("degenerate guards missing")
	}
	// The classic anchor: 23 people, 365 "days" ≈ 8.5 bits.
	p := BirthdayCollisionProbability(9, 23) // 512 slots, a bit under 365-day odds
	if p < 0.3 || p > 0.6 {
		t.Errorf("birthday anchor out of band: %v", p)
	}
	// Monotone in n.
	if BirthdayCollisionProbability(32, 1000) >= BirthdayCollisionProbability(32, 100000) {
		t.Error("not monotone in samples")
	}
	// 2^(n/2) samples give ~39%+.
	if got := BirthdayCollisionProbability(32, 1<<16); got < 0.35 {
		t.Errorf("sqrt-space collision probability %v", got)
	}
}

// The survey's "lifetime of at most 10 years": a key a class-II attacker
// can almost reach today falls within ~a decade under Moore's law, while
// 128-bit keys outlive any doubling cadence that matters.
func TestBruteForceLifetimes(t *testing.T) {
	des := YearsToBreak(56)
	if des < 1 || des > 25 {
		t.Errorf("DES-56 lifetime %v years implausible", des)
	}
	aes128 := YearsToBreak(128)
	if aes128 < 80 {
		t.Errorf("AES-128 lifetime %v years — should be generations", aes128)
	}
	if YearsToBreak(8) > 0.001 {
		t.Error("an 8-bit space should fall instantly")
	}
	// Monotone in key size.
	prev := -1.0
	for _, row := range LifetimeTable() {
		if row.Years <= prev {
			t.Errorf("lifetime table not monotone at %d bits", row.Bits)
		}
		prev = row.Years
	}
}
