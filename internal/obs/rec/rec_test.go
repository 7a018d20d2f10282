package rec

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// allocsPerRun is testing.AllocsPerRun with the collector parked, the
// same guard the soc tests use: a GC cycle inside the window would
// attribute runtime allocations to a loop that performs none.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	return testing.AllocsPerRun(runs, f)
}

func TestNilAndZeroRecorderAreNoOps(t *testing.T) {
	var nilRec *Recorder
	nilRec.Stamp(1, 2)
	nilRec.Emit(KindFill, 0x40, 0, 0, 7)
	if nilRec.Len() != 0 || nilRec.Dropped() != 0 {
		t.Error("nil recorder reported state")
	}
	if st := nilRec.Seal("x"); len(st.Events) != 0 || st.Track != "x" {
		t.Errorf("nil Seal = %+v", st)
	}
	nilRec.Reset()

	var zero Recorder // zero value: no ring, must discard silently
	zero.Stamp(1, 2)
	zero.Emit(KindFill, 0x40, 0, 0, 7)
	if zero.Len() != 0 {
		t.Error("zero-value recorder recorded an event")
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, DefaultCap}, {-5, DefaultCap}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024},
	} {
		if got := len(New(tc.ask).buf); got != tc.want {
			t.Errorf("New(%d) ring holds %d events, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestEmitStampAndSeal(t *testing.T) {
	r := New(16)
	r.Stamp(100, 3)
	r.Emit(KindFill, 0xabc0, 1, FlagChip, 42)
	r.Stamp(150, 4)
	r.Emit(KindVerify, 0xabc0, 0, FlagFail, 9)

	st := r.Seal("t")
	if len(st.Events) != 2 || st.Dropped != 0 {
		t.Fatalf("sealed %d events, dropped %d", len(st.Events), st.Dropped)
	}
	want0 := Event{Seq: 0, Cycle: 100, Ref: 3, Addr: 0xabc0, Arg: 42, Kind: KindFill, Level: 1, Flags: FlagChip}
	want1 := Event{Seq: 1, Cycle: 150, Ref: 4, Addr: 0xabc0, Arg: 9, Kind: KindVerify, Flags: FlagFail}
	if st.Events[0] != want0 {
		t.Errorf("event 0 = %+v, want %+v", st.Events[0], want0)
	}
	if st.Events[1] != want1 {
		t.Errorf("event 1 = %+v, want %+v", st.Events[1], want1)
	}

	// Seal is a copy: later emits must not mutate the sealed stream.
	r.Emit(KindTrap, 0xdead, 0, 0, 0)
	if len(st.Events) != 2 {
		t.Error("Seal aliases the live ring")
	}
}

func TestOverflowKeepsNewestInOrder(t *testing.T) {
	r := New(16)
	const total = 40
	for i := uint64(0); i < total; i++ {
		r.Stamp(i*10, i)
		r.Emit(KindFill, i, 0, 0, i)
	}
	if got := r.Dropped(); got != total-16 {
		t.Fatalf("Dropped = %d, want %d", got, total-16)
	}
	if got := r.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	st := r.Seal("t")
	if st.Dropped != total-16 || len(st.Events) != 16 {
		t.Fatalf("sealed %d events, dropped %d", len(st.Events), st.Dropped)
	}
	// The newest 16 records, in sequence order, starting at seq=Dropped.
	for j, ev := range st.Events {
		wantSeq := uint64(total - 16 + j)
		if ev.Seq != wantSeq || ev.Addr != wantSeq || ev.Ref != wantSeq {
			t.Fatalf("event %d = %+v, want seq/addr/ref %d", j, ev, wantSeq)
		}
	}
}

func TestReset(t *testing.T) {
	r := New(16)
	for i := 0; i < 20; i++ {
		r.Emit(KindFill, 1, 0, 0, 0)
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset did not clear state")
	}
	r.Emit(KindTrap, 2, 0, 0, 0)
	st := r.Seal("t")
	if len(st.Events) != 1 || st.Events[0].Seq != 0 || st.Events[0].Kind != KindTrap {
		t.Fatalf("post-Reset stream = %+v", st)
	}
}

// The writer-side contract the whole design hangs on: Stamp+Emit are
// allocation-free, full ring or not, nil or live.
func TestEmitZeroAllocs(t *testing.T) {
	r := New(1024)
	var i uint64
	if avg := allocsPerRun(100, func() {
		for n := 0; n < 2048; n++ { // wraps: overwrite path included
			r.Stamp(i, i)
			r.Emit(KindFill, i, 1, FlagChip, 7)
			i++
		}
	}); avg != 0 {
		t.Errorf("Stamp+Emit allocated %.1f per 2048 events, want 0", avg)
	}
	var nilRec *Recorder
	if avg := allocsPerRun(100, func() {
		nilRec.Stamp(1, 2)
		nilRec.Emit(KindFill, 3, 0, 0, 4)
	}); avg != 0 {
		t.Errorf("nil-recorder publish allocated %.1f, want 0", avg)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no name", k)
		}
		back, ok := kindByName(k.String())
		if !ok || back != k {
			t.Errorf("kind %d (%s) does not round-trip by name", k, k)
		}
	}
	if Kind(200).String() != "invalid" {
		t.Error("out-of-range kind should stringify as invalid")
	}
}
