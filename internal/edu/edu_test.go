package edu

import "testing"

func TestPlacementString(t *testing.T) {
	cases := map[Placement]string{
		PlacementNone:     "none",
		PlacementCacheMem: "cache<->memctrl",
		PlacementCPUCache: "cpu<->cache",
		Placement(99):     "unknown",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestPipelineFullyPipelined(t *testing.T) {
	// XOM's unit: latency 14, II 1. A 2-block line arriving over 20
	// cycles: last block arrives at 20, finishes at 34 → extra 14.
	p := PipelineTiming{Latency: 14, II: 1}
	if got := p.ExtraCycles(2, 20); got != 14 {
		t.Errorf("pipelined extra = %d, want 14", got)
	}
	// Throughput-limited only if blocks outpace the transfer entirely:
	// 32 blocks arriving instantaneously.
	if got := p.ExtraCycles(32, 0); got != 14+31 {
		t.Errorf("burst extra = %d, want 45", got)
	}
}

func TestPipelineIterativeCore(t *testing.T) {
	// Iterative DES: latency 16, II 16. Four blocks over a 20-cycle
	// transfer: first arrives at 5, admissions at 5,21,37,53; last done
	// at 69 → extra 49.
	p := PipelineTiming{Latency: 16, II: 16}
	if got := p.ExtraCycles(4, 20); got != 49 {
		t.Errorf("iterative extra = %d, want 49", got)
	}
}

func TestPipelineLastArrivalGates(t *testing.T) {
	// Slow transfer, fast pipeline: the last block's arrival dominates;
	// only the final latency shows.
	p := PipelineTiming{Latency: 5, II: 1}
	if got := p.ExtraCycles(4, 1000); got != 5 {
		t.Errorf("slow-bus extra = %d, want 5", got)
	}
}

func TestPipelineZeroBlocks(t *testing.T) {
	p := PipelineTiming{Latency: 10, II: 1}
	if got := p.LineCycles(0, 42); got != 42 {
		t.Errorf("zero blocks: %d, want 42", got)
	}
}

func TestNullEngine(t *testing.T) {
	var e Engine = Null{}
	if e.Name() != "plaintext" {
		t.Error("null identity wrong")
	}
	if e.Gates() != 0 || e.BlockBytes() != 1 || e.PerAccessCycles() != 0 {
		t.Error("null costs nonzero")
	}
	if e.ReadExtraCycles(0, 32, 10) != 0 || e.WriteExtraCycles(0, 32) != 0 {
		t.Error("null cycles nonzero")
	}
	if e.NeedsRMW(1) {
		t.Error("null needs RMW")
	}
	src := []byte{1, 2, 3}
	dst := make([]byte, 3)
	e.EncryptLine(0, dst, src)
	if dst[0] != 1 || dst[2] != 3 {
		t.Error("null transform not identity")
	}
	e.DecryptLine(0, dst, src)
	if dst[1] != 2 {
		t.Error("null decrypt not identity")
	}
}

func TestParsePlacement(t *testing.T) {
	cases := []struct {
		in   string
		want Placement
	}{
		{"", PlacementNone},
		{"default", PlacementNone},
		{"cpu-l1", PlacementCPUCache},
		{"l1-l2", PlacementL1L2},
		{"l2-dram", PlacementL2DRAM},
	}
	for _, c := range cases {
		got, err := ParsePlacement(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePlacement("l3-dram"); err == nil {
		t.Error("unknown placement accepted")
	}
	// Every vocabulary name must round-trip through the parser.
	for _, name := range PlacementNames() {
		if _, err := ParsePlacement(name); err != nil {
			t.Errorf("listed name %q rejected: %v", name, err)
		}
	}
	for _, p := range []Placement{PlacementNone, PlacementCacheMem, PlacementCPUCache, PlacementL1L2, PlacementL2DRAM} {
		if p.String() == "unknown" {
			t.Errorf("placement %d has no name", p)
		}
	}
}
