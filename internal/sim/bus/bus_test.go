package bus

import (
	"bytes"
	"testing"
)

type recorder struct{ beats []Beat }

func (r *recorder) Observe(b Beat) { r.beats = append(r.beats, b) }

func TestValidation(t *testing.T) {
	bad := []Config{
		{},
		{WidthBytes: 0, ClockDivider: 1},
		{WidthBytes: 4, ClockDivider: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestCyclesFor(t *testing.T) {
	b, err := New(Config{WidthBytes: 4, ClockDivider: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 32 bytes over a 4-byte bus: 8 beats + 2 addr = 10 bus cycles × 2.
	if got := b.CyclesFor(32); got != 20 {
		t.Errorf("CyclesFor(32) = %d, want 20", got)
	}
	// Partial beat rounds up: 5 bytes = 2 beats + 2 addr = 4 × 2.
	if got := b.CyclesFor(5); got != 8 {
		t.Errorf("CyclesFor(5) = %d, want 8", got)
	}
}

func TestTransferStatsAndCost(t *testing.T) {
	b, _ := New(Config{WidthBytes: 4, ClockDivider: 1})
	cost := b.Transfer(Read, 0x100, make([]byte, 16))
	if cost != 6 { // 4 beats + 2 addr
		t.Errorf("cost = %d, want 6", cost)
	}
	if b.Transactions != 1 || b.BytesMoved != 16 {
		t.Errorf("stats: txns=%d bytes=%d", b.Transactions, b.BytesMoved)
	}
}

func TestProbeSeesEveryBeat(t *testing.T) {
	b, _ := New(Config{WidthBytes: 4, ClockDivider: 1})
	p := &recorder{}
	b.Attach(p)
	data := []byte{1, 2, 3, 4}
	b.Transfer(Write, 0x40, data)
	b.Transfer(Read, 0x80, []byte{9, 9})
	if len(p.beats) != 2 {
		t.Fatalf("probe saw %d beats, want 2", len(p.beats))
	}
	if p.beats[0].Dir != Write || p.beats[0].Addr != 0x40 || !bytes.Equal(p.beats[0].Data, data) {
		t.Errorf("beat 0 wrong: %+v", p.beats[0])
	}
	if p.beats[1].Dir != Read || p.beats[1].Addr != 0x80 {
		t.Errorf("beat 1 wrong: %+v", p.beats[1])
	}
}

// The probe must get its own copy: mutating the engine buffer afterwards
// must not corrupt the recorded evidence.
func TestProbeDataIsCopied(t *testing.T) {
	b, _ := New(Config{WidthBytes: 4, ClockDivider: 1})
	p := &recorder{}
	b.Attach(p)
	buf := []byte{0xAA, 0xBB}
	b.Transfer(Read, 0, buf)
	buf[0] = 0x00
	if p.beats[0].Data[0] != 0xAA {
		t.Error("probe beat aliases the transfer buffer")
	}
}

func TestMultipleProbes(t *testing.T) {
	b, _ := New(Config{WidthBytes: 4, ClockDivider: 1})
	p1, p2 := &recorder{}, &recorder{}
	b.Attach(p1)
	b.Attach(p2)
	b.Transfer(Read, 0, make([]byte, 4))
	if len(p1.beats) != 1 || len(p2.beats) != 1 {
		t.Error("both probes should observe")
	}
}

func TestDirectionString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("direction names wrong")
	}
}

func TestCycleAdvances(t *testing.T) {
	b, _ := New(Config{WidthBytes: 4, ClockDivider: 2})
	p := &recorder{}
	b.Attach(p)
	b.Transfer(Read, 0, make([]byte, 4))
	b.Transfer(Read, 4, make([]byte, 4))
	if len(p.beats) == 2 && p.beats[1].Cycle <= p.beats[0].Cycle {
		t.Error("bus cycle did not advance between transfers")
	}
}
