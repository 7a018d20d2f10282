// Reader-side exporters: Chrome trace_event JSON (Perfetto-loadable)
// and CSV. Both are byte-deterministic functions of the Trace — the
// writers iterate slices in order, never maps — because traced sweeps
// inherit the campaign's contract that -jobs 1 and -jobs 8 emit
// identical bytes. Never reachable from //repro:hotpath roots
// (reprolint hotpathalloc's recorder rule).
//
//repro:deterministic
package rec

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Lane numbers group events into per-track rows ("threads" in the
// Chrome trace model): one row per cache level plus fixed rows for the
// EDU, the authenticator, the adversary, and the task lifecycle.
const (
	laneLifecycle = 0  // task start/end, baseline, memo
	laneCacheBase = 1  // lane 1 = L1 transfers, lane 2 = L2, ...
	laneEDU       = 8  // encipher/decipher batches
	laneAuth      = 9  // verify/retag + tree node traffic
	laneAttack    = 10 // strikes and traps
)

// laneOf maps an event to its display lane.
func laneOf(ev Event) int {
	switch ev.Kind {
	case KindTaskStart, KindTaskEnd, KindBaseline, KindMemoHit:
		return laneLifecycle
	case KindFill, KindWriteback, KindWriteThrough:
		return laneCacheBase + int(ev.Level)
	case KindDecipher, KindEncipher:
		return laneEDU
	case KindVerify, KindRetag, KindNodeFetch, KindNodeHit, KindDirtyPropagate:
		return laneAuth
	case KindStrike, KindTrap:
		return laneAttack
	}
	return laneAttack + 1
}

// laneName names a lane for the trace viewer's row header.
func laneName(lane int) string {
	switch {
	case lane == laneLifecycle:
		return "lifecycle"
	case lane >= laneCacheBase && lane < laneEDU:
		return fmt.Sprintf("L%d transfers", lane-laneCacheBase+1)
	case lane == laneEDU:
		return "edu"
	case lane == laneAuth:
		return "auth"
	case lane == laneAttack:
		return "attack"
	}
	return fmt.Sprintf("lane %d", lane)
}

// spanKind reports whether the event exports as a Chrome "X" complete
// event (a bar with duration) rather than an instant, and its ts/dur.
// Costed transfers and verifier operations span [Cycle, Cycle+Arg];
// task end and baseline span the whole run from cycle 0, which is what
// makes the per-task track read as a Gantt row in Perfetto.
func spanKind(ev Event) (ts, dur uint64, ok bool) {
	switch ev.Kind {
	case KindFill, KindWriteback, KindWriteThrough, KindVerify, KindRetag:
		return ev.Cycle, ev.Arg, true
	case KindTaskEnd, KindBaseline:
		return 0, ev.Arg, true
	}
	return 0, 0, false
}

// WriteChrome serializes tr as Chrome trace_event JSON ("JSON Object
// Format": a traceEvents array), loadable in Perfetto / chrome://
// tracing. Tracks map to processes (pid = stream index, named by
// metadata events), lanes to threads; ts/dur are simulated cycles
// (displayed as microseconds — the unit label is cosmetic, the
// ordering is what matters). Every event's args carry the full record
// (seq/cycle/ref/addr/level/flags/arg), so DecodeChrome round-trips
// losslessly whatever ph shape the event rendered as.
func WriteChrome(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	io.WriteString(bw, "{\"traceEvents\":[")
	first := true
	sep := func() {
		if first {
			first = false
		} else {
			io.WriteString(bw, ",")
		}
		io.WriteString(bw, "\n")
	}
	for pid := range tr.Streams {
		st := &tr.Streams[pid]
		sep()
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s,"dropped":%d}}`,
			pid, jsonString(st.Track), st.Dropped)
		// Name each lane on first use; lane usage is a pure function of
		// the event sequence, so the metadata is as deterministic as the
		// events themselves.
		var named [laneAttack + 2]bool
		for _, ev := range st.Events {
			lane := laneOf(ev)
			if lane < len(named) && !named[lane] {
				named[lane] = true
				sep()
				fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
					pid, lane, laneName(lane))
			}
			sep()
			if ts, dur, isSpan := spanKind(ev); isSpan {
				fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":{%s}}`,
					ev.Kind.String(), pid, lane, ts, dur, eventArgs(ev))
			} else {
				fmt.Fprintf(bw, `{"name":%q,"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"args":{%s}}`,
					ev.Kind.String(), pid, lane, ev.Cycle, eventArgs(ev))
			}
		}
	}
	io.WriteString(bw, "\n]}\n")
	return bw.Flush()
}

// jsonString renders s as a JSON string literal. Track names are
// caller-chosen, and %q's Go escapes (\x01, \a) are not JSON, so a
// control character in a name would make the trace undecodable. For
// printable names the bytes equal %q's.
func jsonString(s string) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.Encode(s)
	return strings.TrimSuffix(b.String(), "\n")
}

// eventArgs renders the lossless record payload embedded in every
// Chrome event. Addr is hex (a string: JSON numbers lose precision
// past 2^53, and hex is what you grep for anyway).
func eventArgs(ev Event) string {
	return fmt.Sprintf(`"seq":%d,"cycle":%d,"ref":%d,"addr":"0x%x","level":%d,"flags":%d,"arg":%d`,
		ev.Seq, ev.Cycle, ev.Ref, ev.Addr, ev.Level, ev.Flags, ev.Arg)
}

// WriteCSV serializes tr as flat RFC 4180 CSV, one event per row — the
// format for spreadsheet/pandas analysis of event streams. Track labels
// are caller-chosen, so encoding/csv quotes them: any label reads back
// through a csv.Reader unchanged.
func WriteCSV(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"track", "seq", "kind", "cycle", "ref", "addr", "level", "flags", "arg"}); err != nil {
		return err
	}
	row := make([]string, 9)
	for i := range tr.Streams {
		st := &tr.Streams[i]
		for _, ev := range st.Events {
			row[0] = st.Track
			row[1] = strconv.FormatUint(ev.Seq, 10)
			row[2] = ev.Kind.String()
			row[3] = strconv.FormatUint(ev.Cycle, 10)
			row[4] = strconv.FormatUint(ev.Ref, 10)
			row[5] = "0x" + strconv.FormatUint(ev.Addr, 16)
			row[6] = strconv.FormatUint(uint64(ev.Level), 10)
			row[7] = strconv.FormatUint(uint64(ev.Flags), 10)
			row[8] = strconv.FormatUint(ev.Arg, 10)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile writes tr to path: CSV when the path ends in ".csv",
// otherwise Chrome trace_event JSON that Perfetto loads directly.
func WriteFile(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := WriteChrome
	if strings.HasSuffix(path, ".csv") {
		write = WriteCSV
	}
	return errors.Join(write(f, tr), f.Close())
}
