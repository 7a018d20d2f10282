// Package rec is the flight recorder: a fixed-record ring buffer the
// simulation hot path appends events into at zero allocations per
// reference, in the same discipline as the metrics layer (internal/obs)
// — storage is pre-sized at setup, publishing touches only
// preallocated cells, and readers never share a code path with
// publishers. Where obs answers "how much", rec answers "in what
// order": each record carries the simulated-cycle time and reference
// index at which it happened, so a sealed stream is a deterministic,
// replayable account of one run.
//
// Writer side (hot path): (*Recorder).Stamp and (*Recorder).Emit, both
// nil-receiver safe — a nil *Recorder (and a zero-value Recorder) is a
// no-op sink, so instrumented code carries the pointer unconditionally
// with no per-call-site checks. When the ring fills, Emit overwrites
// the oldest record (flight-recorder semantics): recording never
// stalls or allocates; Dropped counts what scrolled off.
//
// Reader side (after or between runs): Seal copies the ring out into a
// Stream in sequence order; exporters (Chrome trace_event JSON, CSV)
// and the decoder live in export.go/decode.go and must never be
// reachable from //repro:hotpath roots — reprolint's hotpathalloc
// analyzer enforces exactly that split (its offPath table).
//
//repro:deterministic
package rec

// Kind is the event taxonomy: one byte naming what happened. The kinds
// span the whole stack — cache line transfers, EDU granule batches,
// authtree node traffic, adversary strikes and traps, campaign task
// lifecycle — so one stream tells the story of a run end to end.
// DESIGN.md §10 documents each kind's Addr/Level/Flags/Arg payload.
type Kind uint8

const (
	// KindNone is the zero kind (an unwritten record).
	KindNone Kind = iota
	// KindFill is a cache line moving inward at Level (Arg = transfer
	// cycles; FlagChip set when DRAM is on the far side).
	KindFill
	// KindWriteback is a line moving outward at Level — an eviction
	// spill or an install into the next level (Arg = transfer cycles;
	// FlagFlush set when the end-of-run drain caused it).
	KindWriteback
	// KindWriteThrough is a store written straight to memory in a
	// write-through system (Arg = total cycles including any RMW).
	KindWriteThrough
	// KindDecipher is an EDU decrypt of one line crossing the guarded
	// boundary inward (Arg = block granules; FlagInner when the
	// boundary is L1<->L2).
	KindDecipher
	// KindEncipher is the outbound counterpart of KindDecipher.
	KindEncipher
	// KindVerify is an authenticator read-verification of inbound
	// ciphertext (Arg = verifier stall cycles; FlagFail on a detected
	// tamper).
	KindVerify
	// KindRetag is the authenticator write-update for an outbound line
	// (Arg = verifier stall cycles).
	KindRetag
	// KindNodeFetch is an authtree walk fetching an uncached interior
	// node from external memory (Addr = node key, Level = tree level,
	// Arg = fetch+hash cycles; FlagUpdate on an update walk).
	KindNodeFetch
	// KindNodeHit is a walk terminating at a node already inside the
	// trust boundary (Addr = node key, Level = tree level).
	KindNodeHit
	// KindDirtyPropagate is a dirty tree node written back on eviction
	// from the node cache (Addr = victim's replacement key, Level =
	// the inserted node's level, Arg = writeback cycles).
	KindDirtyPropagate
	// KindStrike is an adversary injection that actually mutated
	// external state (Addr = tampered line, Arg = attack.TamperKind).
	KindStrike
	// KindTrap is a fail-stop violation trap: verification failed and
	// the line was zeroed (Addr = line, Arg = trap cycles charged).
	KindTrap
	// KindTaskStart opens a campaign task's stream.
	KindTaskStart
	// KindTaskEnd closes it (Cycle and Arg = final cycle count;
	// FlagFail when the task errored).
	KindTaskEnd
	// KindBaseline records the task's memoized plaintext baseline
	// (Arg = baseline cycles). The baseline simulation itself is not
	// recorded live — which worker computes it is scheduling-dependent
	// — so the stream carries its deterministic summary instead.
	KindBaseline
	// KindMemoHit marks a stream reused verbatim from an earlier task
	// with the same key (Arg = the computing task's expansion index).
	// Appended by the canonical merge, never by a recorder.
	KindMemoHit

	kindCount // one past the last valid kind
)

// kindNames indexes Kind -> stable export name (also the CSV/Chrome
// vocabulary; decode.go inverts it).
var kindNames = [kindCount]string{
	KindNone:           "none",
	KindFill:           "fill",
	KindWriteback:      "writeback",
	KindWriteThrough:   "write-through",
	KindDecipher:       "decipher",
	KindEncipher:       "encipher",
	KindVerify:         "verify",
	KindRetag:          "retag",
	KindNodeFetch:      "node-fetch",
	KindNodeHit:        "node-hit",
	KindDirtyPropagate: "dirty-propagate",
	KindStrike:         "strike",
	KindTrap:           "trap",
	KindTaskStart:      "task-start",
	KindTaskEnd:        "task-end",
	KindBaseline:       "baseline",
	KindMemoHit:        "memo-hit",
}

// String names the kind as exporters spell it.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return "invalid"
}

// Flag bits qualifying an event.
const (
	// FlagChip marks a transfer that crossed the chip boundary (DRAM
	// on the far side) rather than an on-chip level-to-level move.
	FlagChip uint8 = 1 << 0
	// FlagFlush marks a transfer performed by the end-of-run drain of
	// dirty lines rather than demand traffic.
	FlagFlush uint8 = 1 << 1
	// FlagFail marks a failed verification (KindVerify) or an errored
	// task (KindTaskEnd).
	FlagFail uint8 = 1 << 2
	// FlagInner marks an EDU event at the inner (L1<->L2) boundary.
	FlagInner uint8 = 1 << 3
	// FlagUpdate marks an authtree walk event on the update (write)
	// path rather than the verify (read) path.
	FlagUpdate uint8 = 1 << 4
)

// Event is one fixed-size record: 48 bytes, no pointers, so the ring
// is a single flat allocation the collector never scans per-entry.
// Seq is the recorder-local sequence number (dense from 0, the stream
// order); Cycle and Ref are the simulated-cycle time and reference
// index stamped when the event fired. Addr, Level, Flags and Arg are
// kind-specific (see the Kind constants and DESIGN.md §10).
type Event struct {
	Seq   uint64
	Cycle uint64
	Ref   uint64
	Addr  uint64
	Arg   uint64
	Kind  Kind
	Level uint8
	Flags uint8
}

// Recorder is one ring-buffer flight recorder. Not safe for concurrent
// writers — like a soc.SoC, a recorder belongs to one task; merged
// views are built reader-side from sealed streams. The zero value (and
// a nil pointer) is a no-op sink.
type Recorder struct {
	buf  []Event
	mask uint64
	seq  uint64
	// cycle/ref are the current stamp: the simulation sets them once
	// per reference (or per costed transfer) and every Emit until the
	// next Stamp inherits them, so subsystems without a clock (the
	// authtree walk, the attack schedule) timestamp correctly for free.
	cycle, ref uint64
}

// DefaultCap is the ring capacity New substitutes for a non-positive
// request: 64k events (3 MiB) holds a short run entirely and a long
// run's recent past.
const DefaultCap = 1 << 16

// New builds a recorder with capacity rounded up to a power of two
// (minimum 16) so the ring index is a mask, not a modulo.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Recorder{buf: make([]Event, n), mask: uint64(n - 1)}
}

// Stamp sets the simulated-cycle time and reference index subsequent
// Emit calls record. The hot loop stamps once per reference and once
// per costed transfer; everything a reference causes shares its stamp.
//
//repro:hotpath
func (r *Recorder) Stamp(cycle, ref uint64) {
	if r == nil {
		return
	}
	r.cycle = cycle
	r.ref = ref
}

// Emit appends one event, overwriting the oldest record when the ring
// is full. Allocation-free by construction: one indexed store into the
// preallocated ring plus the sequence increment.
//
//repro:hotpath
func (r *Recorder) Emit(k Kind, addr uint64, level, flags uint8, arg uint64) {
	if r == nil || len(r.buf) == 0 {
		return
	}
	r.buf[r.seq&r.mask] = Event{
		Seq: r.seq, Cycle: r.cycle, Ref: r.ref,
		Addr: addr, Arg: arg, Kind: k, Level: level, Flags: flags,
	}
	r.seq++
}

// Len reports how many events are currently held (at most Cap).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.seq > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(r.seq)
}

// Dropped reports how many events were overwritten before they could
// be sealed — the flight-recorder overflow count.
func (r *Recorder) Dropped() uint64 {
	if r == nil || r.seq <= uint64(len(r.buf)) {
		return 0
	}
	return r.seq - uint64(len(r.buf))
}

// Reset forgets all recorded events (capacity retained) and clears the
// stamp, so a recorder can be reused across runs.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.seq, r.cycle, r.ref = 0, 0, 0
}

// Stream is a sealed, reader-owned copy of one recorder's contents in
// sequence order: what one task recorded.
type Stream struct {
	// Track labels the stream (the task key, or a CLI-chosen label);
	// exporters name the per-task track with it.
	Track string `json:"track"`
	// Events are in strictly increasing Seq order. When Dropped > 0
	// the first event's Seq is Dropped, not 0 — the earlier records
	// scrolled off the ring.
	Events []Event `json:"events"`
	// Dropped counts records overwritten before sealing.
	Dropped uint64 `json:"dropped"`
}

// Seal copies the ring out into a Stream in sequence order. Reader
// side: allocates, must not be called from the hot path (enforced by
// reprolint's hotpathalloc analyzer).
func (r *Recorder) Seal(track string) Stream {
	st := Stream{Track: track}
	if r == nil || r.seq == 0 {
		return st
	}
	if r.seq > uint64(len(r.buf)) {
		st.Dropped = r.seq - uint64(len(r.buf))
		st.Events = make([]Event, 0, len(r.buf))
		start := r.seq & r.mask // the oldest surviving record
		st.Events = append(st.Events, r.buf[start:]...)
		st.Events = append(st.Events, r.buf[:start]...)
		return st
	}
	st.Events = append(make([]Event, 0, r.seq), r.buf[:r.seq]...)
	return st
}

// Trace is a canonical merged view: one stream per track, in a
// deterministic order fixed by the producer (campaign.TraceOf orders
// by task expansion index; CLIs record a single stream).
type Trace struct {
	Streams []Stream `json:"streams"`
}

// Len is the total event count across all streams.
func (t *Trace) Len() int {
	n := 0
	for i := range t.Streams {
		n += len(t.Streams[i].Events)
	}
	return n
}

// Dropped is the total overflow count across all streams.
func (t *Trace) Dropped() uint64 {
	var n uint64
	for i := range t.Streams {
		n += t.Streams[i].Dropped
	}
	return n
}
