package dram

import (
	"bytes"
	"testing"
	"testing/quick"
)

func mustDRAM(t testing.TB) *DRAM {
	t.Helper()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{},
		{ClockDivider: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestRowBufferTiming(t *testing.T) {
	d := mustDRAM(t)
	div := uint64(DefaultConfig().ClockDivider)
	first := d.AccessCycles(0) // row miss (cold)
	if first != rowMissCycles*div {
		t.Errorf("cold access = %d cycles", first)
	}
	second := d.AccessCycles(64) // same 2 KiB row
	if second != rowHitCycles*div {
		t.Errorf("row hit = %d cycles", second)
	}
	third := d.AccessCycles(rowSize) // next row
	if third != rowMissCycles*div {
		t.Errorf("row switch = %d cycles", third)
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	d := mustDRAM(t)
	data := []byte("bus encryption survey DATE 2005")
	d.Write(0x1000, data)
	got := d.Dump(0x1000, len(data))
	if !bytes.Equal(got, data) {
		t.Errorf("roundtrip: got %q", got)
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	d := mustDRAM(t)
	got := d.Dump(0x9999000, 16)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory nonzero")
		}
	}

	// Reading unwritten memory creates no page: a dirty destination is
	// zeroed, and the read allocates nothing.
	dst := bytes.Repeat([]byte{0xAA}, 64)
	if avg := testing.AllocsPerRun(100, func() { d.ReadInto(0x7000_0000, dst) }); avg != 0 {
		t.Errorf("ReadInto of unwritten memory allocated %.1f times, want 0", avg)
	}
	if !bytes.Equal(dst, make([]byte, 64)) {
		t.Errorf("ReadInto of unwritten memory = %x, want zeros", dst)
	}
	if len(d.store) != 0 {
		t.Errorf("reads created %d pages, want 0", len(d.store))
	}

	// A read spanning a written page and an unwritten one returns the
	// written bytes followed by zeros.
	written := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d.Write(2*pageSize-8, written)
	span := bytes.Repeat([]byte{0xAA}, 24)
	d.ReadInto(2*pageSize-8, span)
	want := append(append([]byte{}, written...), make([]byte, 16)...)
	if !bytes.Equal(span, want) {
		t.Errorf("cross-page read = %x, want %x", span, want)
	}
	if len(d.store) != 1 {
		t.Errorf("store holds %d pages after one single-page write, want 1", len(d.store))
	}

	// The attacker's dump of unwritten memory still reads zeros.
	if dump := d.Dump(0x5000_0000, 3*pageSize); !bytes.Equal(dump, make([]byte, 3*pageSize)) {
		t.Error("Dump of unwritten memory nonzero")
	}
}

func TestCrossPageWrite(t *testing.T) {
	d := mustDRAM(t)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	// Straddle the 4 KiB internal page boundary.
	d.Write(4096-50, data)
	got := d.Dump(4096-50, 100)
	if !bytes.Equal(got, data) {
		t.Error("cross-page write corrupted data")
	}
}

func TestWriteReadProperty(t *testing.T) {
	d := mustDRAM(t)
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := uint64(addr)
		d.Write(a, data)
		return bytes.Equal(d.Dump(a, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
