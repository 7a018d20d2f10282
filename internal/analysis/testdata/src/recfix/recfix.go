// Package recfix is the fixture for hotpathalloc's recorder rules, run
// under HotPathAlloc alone: hot-path code touches
// the flight recorder only through Emit and Stamp; construction,
// sealing and export are setup/reader-side.
package recfix

import (
	"io"

	"repro/internal/obs/rec"
)

type sim struct {
	rc *rec.Recorder
}

//repro:hotpath
func (s *sim) Good(addr, cycles uint64) {
	s.rc.Stamp(cycles, 0)                         // writer-side: clean
	s.rc.Emit(rec.KindFill, addr, 0, 0, cycles)   // writer-side: clean
	s.rc.Emit(rec.KindVerify, addr, 0, 0, cycles) // nil recorder is a no-op sink
}

// SealMidRun is the canonical seeded regression: sealing copies the
// whole ring, and must never happen inside the simulated loop.
//
//repro:hotpath
func (s *sim) SealMidRun() int {
	st := s.rc.Seal("mid") // want `rec\.Recorder\.Seal on the hot path`
	return len(st.Events)
}

//repro:hotpath
func (s *sim) FreshRing() {
	s.rc = rec.New(1 << 10) // want `rec\.New on the hot path`
}

//repro:hotpath
func (s *sim) ResetRing() {
	s.rc.Reset() // want `rec\.Recorder\.Reset on the hot path`
}

//repro:hotpath
func Export(w io.Writer, tr *rec.Trace) error {
	return rec.WriteChrome(w, tr) // want `rec\.WriteChrome on the hot path`
}

// SealAfterRun is unmarked: sealing and exporting on the reader side
// must produce no diagnostics.
func SealAfterRun(rc *rec.Recorder, w io.Writer) error {
	st := rc.Seal("done")
	return rec.WriteCSV(w, &rec.Trace{Streams: []rec.Stream{st}})
}
