// Package demo is the reprolint driver fixture: seeded regressions (a
// fmt.Sprintf in a hot function, a time.Now in an emitter, a registry
// map lookup in a publisher, and a stack array the compiler moves to
// the heap) plus one exercised //repro:allow, so the golden JSON covers
// every output field.
package demo

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

type metrics struct {
	refs  *obs.Counter
	cells map[string]*obs.Counter
}

//repro:hotpath
func (m *metrics) HotRef(id int) string {
	return fmt.Sprintf("ref %d", id)
}

//repro:deterministic
func EmitRow() int64 {
	return time.Now().UnixNano()
}

//repro:hotpath
func (m *metrics) Publish() {
	m.cells["demo.refs"].Inc()
}

//repro:hotpath
func (m *metrics) Warm(seen map[int]bool, id int) {
	seen[id] = true //repro:allow steady-state writes hit existing keys
	m.refs.Inc()
}

type block interface{ Encrypt(dst, src []byte) }

// Whiten is the DS5240 shape: a stack array whitened and handed, sliced,
// to an interface method, so escape analysis moves it to the heap.
//
//repro:hotpath
func Whiten(b block, dst, src []byte) {
	var tmp [8]byte
	for i := range tmp {
		tmp[i] = src[i] ^ 0x5a
	}
	b.Encrypt(dst, tmp[:])
}
