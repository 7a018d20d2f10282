// Package attack implements the adversary of the survey's §2.3: a
// class-II attacker whose "physical access to data is limited to bus
// probing", whose goal is "to prevent ... understanding the contents of
// the data stored in external memory" — here, the attacker trying to
// defeat that goal. It provides:
//
//   - Probe: a bus tap recording every beat (the board-level logic
//     analyzer the survey says costs almost nothing).
//   - ECB leakage analysis: duplicate-ciphertext-block counting, the
//     measurable form of ECB's determinism weakness (experiment E4).
//   - Plaintext search: scanning a capture or memory dump for known
//     plaintext, the zero-effort attack on an unencrypted bus.
//   - RewriteLeak: detecting pad/IV reuse across rewrites of the same
//     address, the exposure behind the birthday attack on AEGIS-style
//     random-vector IVs (E6).
//   - Brute-force lifetime: the §1 "about 10 years" cryptosystem
//     lifetime model under Moore's law (E13).
//
// The Kuhn cipher-instruction-search attack lives in kuhn.go.
package attack

import (
	"bytes"
	"math"

	"repro/internal/sim/bus"
)

// Probe records bus traffic. It implements bus.Probe; attach with
// soc.Bus().Attach(probe).
type Probe struct {
	// Beats is every observed transaction in order.
	Beats []bus.Beat
}

// Observe implements bus.Probe.
func (p *Probe) Observe(b bus.Beat) { p.Beats = append(p.Beats, b) }

// Data concatenates all observed data bytes (the data-line capture).
func (p *Probe) Data() []byte {
	var out []byte
	for _, b := range p.Beats {
		out = append(out, b.Data...)
	}
	return out
}

// ContainsPlaintext reports whether the capture contains needle verbatim
// — the attack that succeeds trivially on an unencrypted bus.
func (p *Probe) ContainsPlaintext(needle []byte) bool {
	return bytes.Contains(p.Data(), needle)
}

// DuplicateBlockRatio measures ECB-style leakage in a byte stream: split
// data into blockSize blocks and return 1 - unique/total. A deterministic
// per-block cipher preserves plaintext block equalities, so structured
// data (zero pages, repeated constants, copied code) shows up as a high
// ratio; a chained or address-bound mode pushes it to ~0.
func DuplicateBlockRatio(data []byte, blockSize int) float64 {
	if blockSize <= 0 || len(data) < blockSize {
		return 0
	}
	total := len(data) / blockSize
	seen := make(map[string]bool, total)
	for i := 0; i+blockSize <= len(data); i += blockSize {
		seen[string(data[i:i+blockSize])] = true
	}
	return 1 - float64(len(seen))/float64(total)
}

// LineEncryptor is the slice of the engine interface RewriteLeak needs.
type LineEncryptor interface {
	EncryptLine(addr uint64, dst, src []byte)
}

// RewriteLeak enciphers the same plaintext line at the same address
// `writes` times and reports how many ciphertexts repeat an earlier one.
// A random-vector IV scheme returns writes-1 (every rewrite repeats); a
// counter IV scheme returns 0. This is the observable the birthday
// attack on AEGIS's random IVs aggregates.
func RewriteLeak(e LineEncryptor, addr uint64, line []byte, writes int) int {
	seen := make(map[string]bool, writes)
	repeats := 0
	ct := make([]byte, len(line))
	for i := 0; i < writes; i++ {
		e.EncryptLine(addr, ct, line)
		if seen[string(ct)] {
			repeats++
		}
		seen[string(ct)] = true
	}
	return repeats
}

// BirthdayCollisionProbability is the analytic probability that n
// uniformly drawn IVs of `bits` bits contain at least one collision —
// the attacker's waiting game against a random-vector IV.
func BirthdayCollisionProbability(bits int, n uint64) float64 {
	if bits <= 0 || n < 2 {
		return 0
	}
	// 1 - exp(-n(n-1) / 2^(bits+1)), the standard approximation.
	exponent := -float64(n) * float64(n-1) / math.Exp2(float64(bits)+1)
	return 1 - math.Exp(exponent)
}

// The brute-force model of the §1 temporal problem: "the key must be
// long enough to thwart the brute force attack... a cryptosystem has a
// lifetime of at most 10 years due to the increase in computer
// processing power (Moore's law)".
const (
	// KeysPerSecond is the attacker's search rate today.
	KeysPerSecond = 1e8
	// DoublingYears is the Moore's-law doubling period of that rate.
	DoublingYears = 1.5
)

// YearsToBreak returns the expected years until a `bits`-bit keyspace is
// half-searched, accounting for the attacker's exponentially growing
// rate: solve ∫ r·2^(t/d) dt = 2^(bits-1).
func YearsToBreak(bits int) float64 {
	const d = DoublingYears
	r := KeysPerSecond * 365.25 * 24 * 3600 // keys per year now
	target := math.Exp2(float64(bits - 1))
	// ∫₀ᵀ r·2^(t/d) dt = r·d/ln2 ·(2^(T/d) − 1) = target
	x := target*math.Ln2/(r*d) + 1
	return d * math.Log2(x)
}

// LifetimeRow is one entry of the E13 table.
type LifetimeRow struct {
	Bits  int
	Years float64
}

// LifetimeTable evaluates YearsToBreak over the classic key sizes: DES
// (56), the DS5002 byte cipher's effective strength as Kuhn broke it
// (8), 3-DES EDE2 (80 effective), 3-DES EDE3 (112), AES (128).
func LifetimeTable() []LifetimeRow {
	out := []LifetimeRow{}
	for _, bits := range []int{8, 56, 64, 80, 112, 128} {
		out = append(out, LifetimeRow{Bits: bits, Years: YearsToBreak(bits)})
	}
	return out
}
