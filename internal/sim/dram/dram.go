// Package dram models the external RAM of the survey's system diagrams:
// a row-buffer timing model plus an actual byte store, because the
// attacks need real memory contents to dump ("he dumped the external
// memory content in clear form through the parallel-port").
package dram

import "fmt"

// The row-buffer timing of a 2005-flavour SDR/DDR-ish part, in
// memory-clock cycles: fast row hits, expensive row misses (precharge +
// activate), 2 KiB rows.
const (
	rowHitCycles  = 4
	rowMissCycles = 12
	rowSize       = 2048
)

// Config fixes the memory clock.
type Config struct {
	// ClockDivider is CPU cycles per memory cycle.
	ClockDivider int
}

// Validate checks parameters.
func (c Config) Validate() error {
	if c.ClockDivider <= 0 {
		return fmt.Errorf("dram: bad clock divider %d", c.ClockDivider)
	}
	return nil
}

// DefaultConfig runs the memory clock at a third of the core.
func DefaultConfig() Config {
	return Config{ClockDivider: 3}
}

// DRAM is one external memory instance.
type DRAM struct {
	cfg     Config
	openRow uint64
	hasOpen bool
	// store is the page-granular backing store (4 KiB pages). Only
	// Write creates pages; reads of unwritten memory return zeros and
	// allocate nothing.
	store map[uint64][]byte
}

const pageSize = 4096

// New builds a memory.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{cfg: cfg, store: make(map[uint64][]byte)}, nil
}

// AccessCycles returns the CPU-cycle latency for touching addr,
// updating the row-buffer state.
func (d *DRAM) AccessCycles(addr uint64) uint64 {
	row := addr / rowSize
	cycles := rowMissCycles
	if d.hasOpen && d.openRow == row {
		cycles = rowHitCycles
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
func (d *DRAM) Dump(addr uint64, n int) []byte {
	out := make([]byte, n)
	d.ReadInto(addr, out)
	return out
}
