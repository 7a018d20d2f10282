// Package dram models the external RAM of the survey's system diagrams:
// a row-buffer timing model plus an actual byte store, because the
// attacks need real memory contents to dump ("he dumped the external
// memory content in clear form through the parallel-port").
package dram

import (
	"fmt"
	"math/bits"
)

// Config fixes the memory timing, in memory-clock cycles.
type Config struct {
	// RowHitCycles is the access time when the open row matches.
	RowHitCycles int
	// RowMissCycles is the access time including precharge + activate.
	RowMissCycles int
	// RowSize is the row-buffer span in bytes (power of two).
	RowSize int
	// ClockDivider is CPU cycles per memory cycle.
	ClockDivider int
}

// Validate checks parameters.
func (c Config) Validate() error {
	switch {
	case c.RowHitCycles <= 0 || c.RowMissCycles < c.RowHitCycles:
		return fmt.Errorf("dram: bad latencies %+v", c)
	case c.RowSize <= 0 || c.RowSize&(c.RowSize-1) != 0:
		return fmt.Errorf("dram: row size %d not a power of two", c.RowSize)
	case c.ClockDivider <= 0:
		return fmt.Errorf("dram: bad clock divider %d", c.ClockDivider)
	}
	return nil
}

// DefaultConfig is a 2005-flavour SDR/DDR-ish part: fast row hits,
// expensive row misses, 2 KiB rows, memory clock at a third of the core.
func DefaultConfig() Config {
	return Config{RowHitCycles: 4, RowMissCycles: 12, RowSize: 2048, ClockDivider: 3}
}

// DRAM is one external memory instance.
type DRAM struct {
	cfg      Config
	rowShift uint // log2(RowSize)
	openRow  uint64
	hasOpen  bool
	// store is the page-granular backing store (4 KiB pages). Only
	// Write creates pages; reads of unwritten memory return zeros and
	// allocate nothing.
	store map[uint64][]byte
	// Stats
	Accesses uint64
	RowHits  uint64
}

const pageSize = 4096

// New builds a memory.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{
		cfg:      cfg,
		rowShift: uint(bits.TrailingZeros(uint(cfg.RowSize))),
		store:    make(map[uint64][]byte),
	}, nil
}

// Config returns the timing parameters.
func (d *DRAM) Config() Config { return d.cfg }

// AccessCycles returns the CPU-cycle latency for touching addr,
// updating the row-buffer state.
func (d *DRAM) AccessCycles(addr uint64) uint64 {
	row := addr >> d.rowShift
	d.Accesses++
	cycles := d.cfg.RowMissCycles
	if d.hasOpen && d.openRow == row {
		cycles = d.cfg.RowHitCycles
		d.RowHits++
	}
	d.openRow, d.hasOpen = row, true
	return uint64(cycles * d.cfg.ClockDivider)
}

// page returns the page holding addr, creating it on first write.
func (d *DRAM) page(addr uint64) []byte {
	base := addr &^ (pageSize - 1)
	p, ok := d.store[base]
	if !ok {
		p = make([]byte, pageSize) //repro:allow demand paging on first write; each page allocates once, reads never create pages
		d.store[base] = p          //repro:allow demand paging on first write; each page inserts once, reads never create pages
	}
	return p
}

// Write stores data at addr (no timing; pair with AccessCycles).
func (d *DRAM) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		p := d.page(addr)
		off := int(addr & (pageSize - 1))
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// Read fetches n bytes at addr; untouched memory reads as zero.
func (d *DRAM) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	d.ReadInto(addr, out)
	return out
}

// ReadInto fetches len(dst) bytes at addr into dst without allocating —
// the simulator's hot fill path. Unwritten ranges read as zeros.
func (d *DRAM) ReadInto(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := int(addr & (pageSize - 1))
		n := min(len(dst), pageSize-off)
		if p, ok := d.store[addr&^(pageSize-1)]; ok {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Dump copies out [addr, addr+n): the attacker's memory image, exactly
// what a parallel-port dump or a desoldered chip read would produce.
func (d *DRAM) Dump(addr uint64, n int) []byte { return d.Read(addr, n) }
