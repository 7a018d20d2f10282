// Active attacks on external memory — the threat the survey's closing
// section defers to future work: "attacks based on the modification of
// the fetched instructions". Three canonical forms are implemented
// against the simulated SoC: spoofing (arbitrary overwrite), splicing
// (relocating valid ciphertext to another address), and replay
// (restoring stale ciphertext at its own address).

package attack

import (
	"bytes"

	"repro/internal/sim/soc"
)

// TamperOutcome reports what one active attack achieved.
type TamperOutcome struct {
	// Accepted is true when the CPU consumed attacker-influenced data as
	// if it were genuine (the attack succeeded).
	Accepted bool
	// Detail describes what the CPU-side read returned.
	Detail string
}

// Spoof overwrites the ciphertext line at addr with attacker bytes and
// reads it back through the engine. Against a confidentiality-only
// engine the CPU happily deciphers garbage (accepted: the attacker
// steered execution); an authenticating verifier must return a zeroed
// (fail-stop) line.
func Spoof(s *soc.SoC, addr uint64, junk []byte) TamperOutcome {
	lineSize := len(junk)
	before := s.ReadPlain(addr, lineSize)
	s.DRAM().Write(addr, junk)
	after := s.ReadPlain(addr, lineSize)

	if allZero(after) {
		return TamperOutcome{Accepted: false, Detail: "fail-stop: line zeroed"}
	}
	if bytes.Equal(after, before) {
		return TamperOutcome{Accepted: false, Detail: "unchanged (tamper had no effect)"}
	}
	return TamperOutcome{Accepted: true, Detail: "CPU consumed attacker-modified data"}
}

// Splice copies the valid ciphertext line at src over the line at dst
// (both line-aligned, same length n) — Kuhn-style code relocation. An
// address-bound cipher garbles it; only an authenticated engine
// *detects* it; a plain ECB engine executes the relocated code verbatim.
func Splice(s *soc.SoC, srcAddr, dstAddr uint64, n int) TamperOutcome {
	srcPlain := s.ReadPlain(srcAddr, n)
	ct := s.DRAM().Dump(srcAddr, n)
	s.DRAM().Write(dstAddr, ct)
	// A thorough attacker relocates the authentication tag too (it lives
	// in external memory with the data); the MAC's address binding is
	// what must stop the splice, not tag absence.
	if ts := tamperTagStore(s); ts != nil {
		if tag, had := ts.TagAt(srcAddr); had {
			ts.TamperTag(dstAddr, tag)
		}
	}
	after := s.ReadPlain(dstAddr, n)

	switch {
	case allZero(after):
		return TamperOutcome{Accepted: false, Detail: "fail-stop: line zeroed"}
	case bytes.Equal(after, srcPlain):
		return TamperOutcome{Accepted: true, Detail: "relocated code accepted verbatim (no address binding)"}
	default:
		return TamperOutcome{Accepted: true, Detail: "garbled but consumed (address binding without authentication)"}
	}
}

// tagStore is implemented by authenticators whose tag memory is
// external (attacker-readable and -writable): the sim/authtree
// verifiers.
type tagStore interface {
	TagAt(addr uint64) ([8]byte, bool)
	TamperTag(addr uint64, tag [8]byte)
}

// Replay snapshots the ciphertext line at addr — INCLUDING its external
// authentication tag, if the engine stores one — lets mutate rewrite the
// line through legitimate means, restores the stale snapshot, and reads
// back. MAC-only engines accept the old (line, tag) pair, a rollback —
// the classic attack on spent credit counters; only freshness (on-chip
// version counters) refuses it. addr must be line-aligned and n one
// line.
func Replay(s *soc.SoC, addr uint64, n int, mutate func()) TamperOutcome {
	oldPlain := s.ReadPlain(addr, n)
	snapshot := s.DRAM().Dump(addr, n)
	var staleTag [8]byte
	var hadTag bool
	ts := tamperTagStore(s)
	hasStore := ts != nil
	if hasStore {
		staleTag, hadTag = ts.TagAt(addr)
	}
	mutate()
	s.DRAM().Write(addr, snapshot)
	if hasStore && hadTag {
		ts.TamperTag(addr, staleTag)
	}
	after := s.ReadPlain(addr, n)

	switch {
	case allZero(after):
		return TamperOutcome{Accepted: false, Detail: "fail-stop: stale line rejected"}
	case bytes.Equal(after, oldPlain):
		return TamperOutcome{Accepted: true, Detail: "stale value accepted (rollback succeeded)"}
	default:
		return TamperOutcome{Accepted: true, Detail: "stale ciphertext consumed as garbage"}
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
