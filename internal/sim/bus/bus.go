// Package bus models the processor–memory bus: the link the survey calls
// "the weakest point of the system, hacker's favorite security hole",
// because "observing both memory content and system execution can be
// done through simple board-level probing at almost no cost".
//
// The model carries two concerns: timing (width and clock divider turn a
// transfer size into bus cycles) and observability (any number of Probe
// taps see every beat that crosses the chip boundary — this is the
// attacker's vantage point used by internal/attack).
package bus

import "fmt"

// Direction of a bus transfer relative to the SoC.
type Direction int

const (
	// Read moves data from external memory into the SoC.
	Read Direction = iota
	// Write moves data from the SoC to external memory.
	Write
)

// String names the direction.
func (d Direction) String() string {
	if d == Read {
		return "read"
	}
	return "write"
}

// Beat is one observable bus transaction: the address placed on the
// address lines and the data on the data lines. Data is what actually
// crosses the pins — ciphertext when an engine is present, plaintext
// when not; the probe records it verbatim.
type Beat struct {
	Dir   Direction
	Addr  uint64
	Data  []byte
	Cycle uint64 // bus-clock cycle at which the beat completed
}

// Probe receives every beat; implementations live in internal/attack.
type Probe interface {
	Observe(Beat)
}

// addressCycles is the fixed per-transaction address/handshake cost in
// bus cycles.
const addressCycles = 2

// Config fixes the bus timing parameters.
type Config struct {
	// WidthBytes is the data-path width (e.g. 4 for a 32-bit bus).
	WidthBytes int
	// ClockDivider is CPU cycles per bus cycle (≥1); external buses run
	// slower than the core.
	ClockDivider int
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.WidthBytes <= 0 || c.ClockDivider <= 0 {
		return fmt.Errorf("bus: bad config %+v", c)
	}
	return nil
}

// Bus is one bus instance with attached probes.
type Bus struct {
	cfg    Config
	probes []Probe
	cycle  uint64
	// Stats
	Transactions uint64
	BytesMoved   uint64
}

// New builds a bus.
func New(cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{cfg: cfg}, nil
}

// Attach adds a probe tap. Multiple probes may coexist (a logic analyzer
// on address lines and another on data lines, say).
func (b *Bus) Attach(p Probe) { b.probes = append(b.probes, p) }

// CyclesFor returns the CPU-cycle cost of moving n bytes in one
// transaction: address phase plus ceil(n/width) data beats, all scaled
// by the clock divider.
func (b *Bus) CyclesFor(n int) uint64 {
	beats := (n + b.cfg.WidthBytes - 1) / b.cfg.WidthBytes
	return uint64(b.cfg.ClockDivider) * uint64(addressCycles+beats)
}

// Transfer moves data across the pins, notifying probes, and returns the
// CPU-cycle cost. data is what is visible on the wires.
func (b *Bus) Transfer(dir Direction, addr uint64, data []byte) uint64 {
	cost := b.CyclesFor(len(data))
	b.cycle += cost / uint64(b.cfg.ClockDivider)
	b.Transactions++
	b.BytesMoved += uint64(len(data))
	if len(b.probes) > 0 {
		// Copy so probes can retain the beat without aliasing engine
		// buffers that will be reused.
		//repro:allow probe retention copy; probes attach only in attack experiments, never in timing runs
		cp := append([]byte{}, data...)
		beat := Beat{Dir: dir, Addr: addr, Data: cp, Cycle: b.cycle}
		for _, p := range b.probes {
			p.Observe(beat)
		}
	}
	return cost
}
