// The Kuhn cipher-instruction-search attack on the DS5002FP, as the
// survey recounts it: "The security principle of this microcontroller is
// based on a ciphering by block of 8-bit instructions. The hacker
// circumvents the cryptographic problem by finding a hole in the
// architecture processing and by applying exhaustive attack (8-bit
// instruction -> 256 possibilities). After having identified the MOV
// instruction, he dumped the external memory content in clear form
// through the parallel-port."

package attack

import (
	"fmt"

	"repro/internal/crypto/ds5002"
)

// The simplified 8051-flavoured ISA of the victim model. Only the
// opcodes the gadget needs have architectural effects; everything else
// is inert, and the attacker can distinguish "port emitted a byte" from
// "nothing happened" — the externally observable hole Kuhn exploited.
const (
	// OpMovADirect is "MOV A, direct": load A from the memory byte whose
	// 16-bit address follows the opcode. (Real 8051: 0xE5 with an 8-bit
	// address; widened to 16 bits here for a full dump.)
	OpMovADirect = 0xE5
	// OpMovPort is "MOV P1, A": emit A on the parallel port. Real 8051
	// encoding 0xF5 0x90; modeled as a single byte for clarity.
	OpMovPort = 0xF7
)

// GadgetLen is the dump gadget size in bytes:
// MOV A,direct(lo,hi) ; MOV P1,A.
const GadgetLen = 4

// Victim is the protected device: a DS5002-style part with a secret key
// and an enciphered external memory image, exposing only what a real
// board exposes — injectable bus bytes and the parallel port.
type Victim struct {
	part *ds5002.DS5002
	mem  []byte // external (enciphered) memory image
}

// NewVictim loads the plaintext program into a freshly keyed part.
func NewVictim(key, program []byte) (*Victim, error) {
	part, err := ds5002.NewDS5002(key)
	if err != nil {
		return nil, err
	}
	v := &Victim{part: part, mem: make([]byte, ds5002.MemSize)}
	for i, b := range program {
		v.part.Store(v.mem, uint16(i), b)
	}
	return v, nil
}

// ExecuteInjected models the attacker driving the bus: the CPU fetches
// GadgetLen bytes starting at addr, but the attacker substitutes the
// bytes on the data lines with `injected` (ciphertext, since they enter
// the part's decryptor). The return value is what appears on the
// parallel port (nil if nothing). This is the "hole in the architecture
// processing": behavior observable per injected instruction.
func (v *Victim) ExecuteInjected(addr uint16, injected [GadgetLen]byte) []byte {
	// The part decrypts each injected byte with its per-address cipher.
	var plain [GadgetLen]byte
	for i := range injected {
		plain[i] = v.part.DecryptByte(addr+uint16(i), injected[i])
	}
	// Interpret: MOV A,direct lo hi ; MOV P1,A
	if plain[0] == OpMovADirect && plain[3] == OpMovPort {
		target := uint16(plain[1]) | uint16(plain[2])<<8
		a := v.part.Load(v.mem, target)
		return []byte{a}
	}
	// Single-instruction probe: MOV P1,A with the reset value of A.
	if plain[0] == OpMovPort {
		return []byte{0x00}
	}
	return nil
}

// KuhnResult reports the attack outcome.
type KuhnResult struct {
	// Probes is the number of injected executions used.
	Probes int
	// Dump is the recovered plaintext memory.
	Dump []byte
}

// Kuhn runs the full attack against v, recovering n bytes of plaintext
// memory. Phase 1 is the cipher instruction search: at a scratch window,
// exhaust the 256 possible ciphertext bytes per position to identify the
// gadget bytes' encryptions (the survey's "8-bit instruction -> 256
// possibilities"). Phase 2 drives the recovered dump gadget across the
// address space, reading every byte through the port.
func Kuhn(v *Victim, window uint16, n int) (*KuhnResult, error) {
	res := &KuhnResult{}

	// --- Phase 1a: find E(window, OpMovPort): inject candidate as a
	// single instruction; the port emits A's reset value when we hit it.
	findPort := func(addr uint16) (byte, error) {
		for c := 0; c < 256; c++ {
			res.Probes++
			var inj [GadgetLen]byte
			inj[0] = byte(c)
			if out := v.ExecuteInjected(addr, inj); len(out) == 1 && out[0] == 0x00 {
				return byte(c), nil
			}
		}
		return 0, fmt.Errorf("attack: no ciphertext decodes to MOV P1,A at %#x", addr)
	}
	// The gadget needs MOV P1,A at window+3.
	portByte, err := findPort(window + 3)
	if err != nil {
		return nil, err
	}
	// And a sentinel MOV P1,A at the window start, used to calibrate the
	// search for the first gadget byte below.
	if _, err := findPort(window); err != nil {
		return nil, err
	}

	// --- Phase 1b: find E(window, OpMovADirect). With the port opcode
	// pinned at window+3, sweep the first byte: when it decodes to
	// MOV A,direct the machine loads A from the (arbitrary) operand
	// address and the port emits it — observable regardless of value.
	var movByte byte
	found := false
	for c := 0; c < 256 && !found; c++ {
		res.Probes++
		inj := [GadgetLen]byte{byte(c), 0, 0, portByte}
		if out := v.ExecuteInjected(window, inj); len(out) == 1 {
			// Exclude the single-byte port hit found in 1a (emits 0x00
			// from position 0 without consuming operands); the collision
			// is resolved by changing the operand and observing a
			// different byte, but for the model the opcode values differ
			// so a second injection disambiguates.
			inj2 := [GadgetLen]byte{byte(c), 1, 0, portByte}
			out2 := v.ExecuteInjected(window, inj2)
			if len(out2) == 1 && (out2[0] != out[0] || v.distinct(window, byte(c))) {
				movByte = byte(c)
				found = true
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("attack: MOV A,direct not identified at %#x", window)
	}

	// --- Phase 1c: the operand bytes at window+1/window+2 must encode
	// attacker-chosen addresses, so recover the full 256-entry
	// encryption tables for those two positions by exhaustive search:
	// inject each candidate as the low operand and observe which memory
	// byte arrives. Mapping plaintext->ciphertext needs the inverse
	// direction, so build decrypt tables by probing all 256 values.
	encLo := v.buildOperandTable(window+1, res)
	encHi := v.buildOperandTable(window+2, res)

	// --- Phase 2: dump memory through the port.
	res.Dump = make([]byte, n)
	for a := 0; a < n; a++ {
		res.Probes++
		inj := [GadgetLen]byte{movByte, encLo[byte(a)], encHi[byte(a>>8)], portByte}
		out := v.ExecuteInjected(window, inj)
		if len(out) != 1 {
			return nil, fmt.Errorf("attack: dump gadget failed at %#x", a)
		}
		res.Dump[a] = out[0]
	}
	return res, nil
}

// distinct reports whether candidate decodes differently from OpMovPort
// at addr (disambiguation helper — uses only observable behavior: the
// one-byte probe's output position).
func (v *Victim) distinct(addr uint16, candidate byte) bool {
	var inj [GadgetLen]byte
	inj[0] = candidate
	out := v.ExecuteInjected(addr, inj)
	// A bare MOV P1,A emits 0x00; MOV A,direct with zeroed operands
	// reads mem[decrypt(0,0)...] — still emits something only when the
	// trailing port opcode runs, which the single-byte frame lacks.
	return out == nil
}

// buildOperandTable recovers, for one operand position, the ciphertext
// byte that decodes to each plaintext value 0..255 — 256 probes, one per
// candidate, exactly the survey's "8-bit instruction -> 256
// possibilities" economics applied to an operand byte.
//
// Mechanism in the real attack: Kuhn obtained known-plaintext pairs for
// chosen addresses by letting the part's loader write attacker-supplied
// bytes through the bus encryptor and recording the enciphered result on
// the bus (ciphertext is observable at the pins; the plaintext was his
// own). With pairs for the operand address, the bijection
// DecryptByte(addr, ·) is read off candidate by candidate. The model
// grants that known-plaintext step directly: each probe queries the
// part's per-address decryptor once.
func (v *Victim) buildOperandTable(addr uint16, res *KuhnResult) [256]byte {
	var enc [256]byte
	for c := 0; c < 256; c++ {
		res.Probes++
		pt := v.part.DecryptByte(addr, byte(c))
		enc[pt] = byte(c)
	}
	return enc
}

// DS5240SearchInfeasible demonstrates the successor's fix: Kuhn's attack
// needs the injected block to decrypt to a *chosen* instruction sequence
// (the dump gadget with attacker-controlled operands). With 8-bit
// ciphering that is a 256-way search per byte; with 64-bit blocks the
// bytes cannot be searched independently — the attacker must hit a full
// chosen 8-byte plaintext, probability 2^-64 per injection. `trials`
// random injections are run and the chosen-gadget hit count returned
// (expected 0) — the paper: "the 8-bit based ciphering passes to 64-bit
// based ciphering", closing the attack.
func DS5240SearchInfeasible(key []byte, trials int, seed int64) (hits int, err error) {
	d, err := ds5002.NewDS5240(key)
	if err != nil {
		return 0, err
	}
	// Deterministic xorshift for reproducibility.
	x := uint64(seed) | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// The chosen gadget: dump mem[0x1234] then pad with NOPs (0x00).
	target := [8]byte{OpMovADirect, 0x34, 0x12, OpMovPort, 0, 0, 0, 0}
	var block [8]byte
	var plain [8]byte
	for i := 0; i < trials; i++ {
		v := next()
		for j := range block {
			block[j] = byte(v >> (8 * uint(j)))
		}
		d.DecryptBlockAt(0x8000, plain[:], block[:])
		if plain == target {
			hits++
		}
	}
	return hits, nil
}
