// Package atomfix is the atomic-discipline fixture: module code uses
// the typed atomics, whose plain access is a compile error, and every
// reference to a function-style sync/atomic operation is flagged,
// whether it is called or taken as a value.
package atomfix

import "sync/atomic"

type cell struct {
	n    uint64
	hits atomic.Uint64 // typed: clean
}

func (c *cell) bump() {
	atomic.AddUint64(&c.n, 1) // want `function-style atomic\.AddUint64 .*use a typed atomic`
}

func (c *cell) read() uint64 {
	return atomic.LoadUint64(&c.n) // want `function-style atomic\.LoadUint64`
}

func (c *cell) reset() {
	atomic.StoreUint64(&c.n, 0) // want `function-style atomic\.StoreUint64`
}

func (c *cell) casLoop(old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&c.n, old, new) // want `function-style atomic\.CompareAndSwapUint64`
}

var flag int32

func swap() int32 {
	return atomic.SwapInt32(&flag, 1) // want `function-style atomic\.SwapInt32`
}

// add takes the function as a value: the reference is flagged too.
var add = atomic.AddInt64 // want `function-style atomic\.AddInt64`

// typed uses only the method API of the typed atomics: clean.
func (c *cell) typed() uint64 {
	c.hits.Add(1)
	c.hits.CompareAndSwap(1, 2)
	var p atomic.Pointer[cell]
	p.Store(c)
	return c.hits.Load() + p.Load().n
}
