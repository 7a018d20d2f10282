// Package devirtfix is the regression fixture for interface-edge
// propagation into real module interfaces: an edu.Verifier
// implementation that carries NO //repro:hotpath marker must still be
// checked when a marked function calls VerifyRead through the
// interface. Before devirtualization this implementation was invisible
// to the linter; if these wants stop firing, interface edges regressed.
package devirtfix

import "repro/internal/edu"

// badVerifier is a deliberately dirty, unmarked edu.Verifier.
type badVerifier struct {
	tags map[uint64][]byte
	name string
}

func (b *badVerifier) Name() string { return b.name }

func (b *badVerifier) Gates() int { return 0 }

func (b *badVerifier) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	held := append([]byte{}, ct...) // want `append outside the self-append idiom.*reached from devirtfix\.Pipeline` `\[\]byte\{\} escapes to heap.*reached from devirtfix\.Pipeline`
	b.tags[addr] = held             // want `map write may allocate.*reached from devirtfix\.Pipeline`
	return 0, true
}

func (b *badVerifier) UpdateWrite(addr uint64, ct []byte) uint64 {
	b.name = b.name + "!" // want `b\.name \+ "!" escapes to heap.*reached from devirtfix\.Pipeline`
	return 0
}

// Pipeline is the only marked function; everything below it is reached
// through the devirtualized graph.
//
//repro:hotpath
func Pipeline(v edu.Verifier, addr uint64, ct []byte) uint64 {
	cost, ok := v.VerifyRead(addr, ct)
	if !ok {
		return cost
	}
	return v.UpdateWrite(addr, ct)
}
