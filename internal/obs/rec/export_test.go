package rec

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleTrace builds a two-stream trace exercising every kind, flag
// bits, large addresses, and a nonzero drop count.
func sampleTrace() *Trace {
	var evs []Event
	seq := uint64(0)
	add := func(k Kind, cycle, ref, addr uint64, level, flags uint8, arg uint64) {
		evs = append(evs, Event{Seq: seq, Cycle: cycle, Ref: ref, Addr: addr, Arg: arg, Kind: k, Level: level, Flags: flags})
		seq++
	}
	add(KindTaskStart, 0, 0, 0, 0, 0, 0)
	add(KindBaseline, 0, 0, 0, 0, 0, 123456)
	add(KindStrike, 10, 1, 0x4000_1230, 0, 0, 2)
	add(KindDecipher, 40, 2, 0x4000_1230, 0, 0, 2)
	add(KindVerify, 40, 2, 0x4000_1230, 0, FlagFail, 55)
	add(KindTrap, 40, 2, 0x4000_1230, 0, 0, 100)
	add(KindFill, 40, 2, 0x4000_1230, 0, FlagChip, 210)
	add(KindNodeFetch, 40, 2, 1<<56|7, 1, FlagUpdate, 30)
	add(KindNodeHit, 40, 2, 2<<56|1, 2, 0, 0)
	add(KindDirtyPropagate, 40, 2, 1<<56|3, 1, 0, 24)
	add(KindEncipher, 90, 3, 0xffff_ffff_ffff_ffe0, 0, FlagInner, 2)
	add(KindRetag, 90, 3, 0xffff_ffff_ffff_ffe0, 0, 0, 12)
	add(KindWriteback, 90, 3, 0xffff_ffff_ffff_ffe0, 1, FlagFlush, 80)
	add(KindWriteThrough, 120, 4, 0x40, 0, 0, 60)
	add(KindTaskEnd, 500, 4, 0, 0, 0, 500)

	second := []Event{
		{Seq: 5, Cycle: 9, Ref: 1, Addr: 0x80, Kind: KindFill, Level: 0, Flags: FlagChip, Arg: 33},
		{Seq: 7, Cycle: 12, Ref: 2, Addr: 0, Kind: KindMemoHit, Arg: 0},
	}
	return &Trace{Streams: []Stream{
		{Track: "task000 engine=aegis auth=ctree", Events: evs},
		{Track: `quoted "track", with comma`, Events: second, Dropped: 5},
	}}
}

// The headline export contract: WriteChrome emits valid JSON that
// DecodeChrome inverts losslessly, and Validate accepts it.
func TestChromeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteChrome produced invalid JSON")
	}
	got, err := DecodeChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(got); err != nil {
		t.Fatal(err)
	}
	if len(got.Streams) != len(tr.Streams) {
		t.Fatalf("decoded %d streams, want %d", len(got.Streams), len(tr.Streams))
	}
	for i := range tr.Streams {
		want, have := tr.Streams[i], got.Streams[i]
		if have.Track != want.Track {
			t.Errorf("stream %d track = %q, want %q", i, have.Track, want.Track)
		}
		if have.Dropped != want.Dropped {
			t.Errorf("stream %d dropped = %d, want %d", i, have.Dropped, want.Dropped)
		}
		if len(have.Events) != len(want.Events) {
			t.Fatalf("stream %d has %d events, want %d", i, len(have.Events), len(want.Events))
		}
		for j := range want.Events {
			if have.Events[j] != want.Events[j] {
				t.Errorf("stream %d event %d = %+v, want %+v", i, j, have.Events[j], want.Events[j])
			}
		}
	}
}

// Exporters are part of the byte-determinism contract: two serializations
// of the same trace are identical bytes.
func TestExportDeterministic(t *testing.T) {
	tr := sampleTrace()
	var a, b, c, d bytes.Buffer
	if err := WriteChrome(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteChrome is not deterministic")
	}
	if err := WriteCSV(&c, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&d, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Error("WriteCSV is not deterministic")
	}
}

func TestCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "track,seq,kind,cycle,ref,addr,level,flags,arg" {
		t.Errorf("header = %q", lines[0])
	}
	wantRows := sampleTrace().Len()
	if len(lines)-1 != wantRows {
		t.Errorf("%d data rows, want %d", len(lines)-1, wantRows)
	}
	// The comma-bearing track label must be quoted, not split, with its
	// quotes doubled (RFC 4180).
	var quoted bool
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, `"quoted ""track"", with comma",`) {
			quoted = true
		}
	}
	if !quoted {
		t.Error("track label with comma was not CSV-escaped")
	}
}

// A track label holding every CSV metacharacter — comma, quote and
// newline — must read back through encoding/csv unchanged, one record
// per event.
func TestCSVRoundTripsTrackLabels(t *testing.T) {
	label := "a,\"b\"\nc"
	tr := &Trace{Streams: []Stream{{Track: label, Events: []Event{
		{Seq: 0, Kind: KindFill, Addr: 0x40},
		{Seq: 1, Kind: KindTrap, Arg: 100},
	}}}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("csv.Reader cannot read WriteCSV output: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want header + 2", len(recs))
	}
	for _, r := range recs[1:] {
		if r[0] != label {
			t.Errorf("track read back as %q, want %q", r[0], label)
		}
	}
	if want := []string{label, "1", "trap", "0", "0", "0x0", "0", "0", "100"}; !reflect.DeepEqual(recs[2], want) {
		t.Errorf("row = %q, want %q", recs[2], want)
	}
}

// TestWriteFilePicksFormatBySuffix: a ".csv" path gets WriteCSV's
// bytes, any other path WriteChrome's.
func TestWriteFilePicksFormatBySuffix(t *testing.T) {
	tr := sampleTrace()
	for name, write := range map[string]func(io.Writer, *Trace) error{
		"trace.csv":  WriteCSV,
		"trace.json": WriteChrome,
		"trace":      WriteChrome,
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := WriteFile(path, tr); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := write(&want, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("WriteFile(%s) wrote the wrong format:\n%s", name, got)
		}
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "missing", "t.csv"), tr); err == nil {
		t.Error("WriteFile into a missing directory: want an error")
	}
}

func TestValidateRejectsNonMonotoneSeq(t *testing.T) {
	tr := &Trace{Streams: []Stream{{
		Track: "t",
		Events: []Event{
			{Seq: 3, Kind: KindFill},
			{Seq: 3, Kind: KindTrap},
		},
	}}}
	if err := Validate(tr); err == nil {
		t.Error("Validate accepted a repeated sequence number")
	}
	tr.Streams[0].Events[1].Seq = 2
	if err := Validate(tr); err == nil {
		t.Error("Validate accepted a decreasing sequence number")
	}
	tr.Streams[0].Events[1] = Event{Seq: 9, Kind: kindCount + 1}
	if err := Validate(tr); err == nil {
		t.Error("Validate accepted an invalid kind")
	}
}

// Lane assignment keeps every kind on a stable display row.
func TestLaneMapping(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want int
	}{
		{Event{Kind: KindTaskStart}, laneLifecycle},
		{Event{Kind: KindFill, Level: 0}, laneCacheBase},
		{Event{Kind: KindWriteback, Level: 1}, laneCacheBase + 1},
		{Event{Kind: KindDecipher}, laneEDU},
		{Event{Kind: KindNodeFetch}, laneAuth},
		{Event{Kind: KindStrike}, laneAttack},
		{Event{Kind: KindTrap}, laneAttack},
	} {
		if got := laneOf(tc.ev); got != tc.want {
			t.Errorf("laneOf(%s) = %d, want %d", tc.ev.Kind, got, tc.want)
		}
	}
	seen := map[string]bool{}
	for lane := 0; lane <= laneAttack+1; lane++ {
		name := laneName(lane)
		if name == "" || seen[name] {
			t.Errorf("lane %d name %q empty or duplicated", lane, name)
		}
		seen[name] = true
	}
}

// FuzzDecodeChrome feeds DecodeChrome arbitrary bytes: it must never
// panic, and any trace it accepts must re-export through WriteChrome
// and decode to an equal Trace. The seed corpus under
// testdata/fuzz/FuzzDecodeChrome includes a small traced sweep.
func FuzzDecodeChrome(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := DecodeChrome(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteChrome(&out, tr); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeChrome(&out)
		if err != nil {
			t.Fatalf("re-exported trace does not decode: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\ngot  %+v\nwant %+v", again, tr)
		}
	})
}
