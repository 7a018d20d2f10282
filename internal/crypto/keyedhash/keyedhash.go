// Package keyedhash provides the keyed hash of the flat per-line
// authenticator's HMAC tag unit (authtree.FlatConfig.HMAC), in the
// spirit of the General Instrument patent, which the survey notes can
// "authenticate the data coming from external memory thanks to a keyed
// hash algorithm".
//
// MAC is a reusable HMAC-SHA256 over crypto/hmac and crypto/sha256,
// shaped for per-line tagging: key once, then TagLine (or
// Reset/Write/SumFixed) per line without allocating.
package keyedhash

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Size is the HMAC-SHA256 tag length in bytes.
const Size = sha256.Size

// TagBytes is the truncated tag TagLine returns (64-bit tags, the
// common hardware width of the era).
const TagBytes = 8

// MAC is a reusable HMAC-SHA256 state: the key schedule is computed
// once in Init, and Reset/Write/SumFixed run allocation-free, so a
// verifier can hold a MAC by value and tag one line per call on the hot
// path. The zero value tags under the empty key. A MAC is not safe for
// concurrent use.
type MAC struct {
	h hash.Hash
	// sum receives h.Sum and hdr holds TagLine's addr ‖ version header.
	// They live in the struct because a stack array passed through the
	// hash.Hash interface call escapes to the heap.
	sum [Size]byte
	hdr [16]byte
}

// Init computes the key schedule. Call once per key; it may allocate.
func (m *MAC) Init(key []byte) { m.h = hmac.New(sha256.New, key) }

// state returns the keyed hash, keying a zero MAC with the empty key.
func (m *MAC) state() hash.Hash {
	if m.h == nil {
		m.Init(nil)
	}
	return m.h
}

// Reset restarts the message, keeping the key schedule.
//
//repro:hotpath
func (m *MAC) Reset() { m.state().Reset() }

// Write absorbs p into the current message.
//
//repro:hotpath
func (m *MAC) Write(p []byte) { m.state().Write(p) }

// SumFixed returns HMAC(key, message-so-far) without allocating and
// without disturbing the running state.
//
//repro:hotpath
func (m *MAC) SumFixed() [Size]byte {
	m.state().Sum(m.sum[:0])
	return m.sum
}

// TagLine returns the truncated authenticator of one line: the first
// TagBytes of HMAC(key, addr ‖ version ‖ data), the address and
// version big-endian. The bindings are the ones ghash.Key.TagLine
// takes as its nonce, so the two tag units are interchangeable.
// Allocation-free.
//
//repro:hotpath
func (m *MAC) TagLine(addr, version uint64, data []byte) [TagBytes]byte {
	binary.BigEndian.PutUint64(m.hdr[:8], addr)
	binary.BigEndian.PutUint64(m.hdr[8:], version)
	m.Reset()
	m.Write(m.hdr[:])
	m.Write(data)
	full := m.SumFixed()
	return [TagBytes]byte(full[:TagBytes])
}
