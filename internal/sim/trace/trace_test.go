package trace

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	if Fetch.String() != "fetch" || Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

// countKinds counts a trace's references by kind.
func countKinds(tr *Trace) map[Kind]int {
	n := map[Kind]int{}
	for _, r := range tr.Refs {
		n[r.Kind]++
	}
	return n
}

func TestGeneratorsProduceRequestedLength(t *testing.T) {
	for name, mk := range Sources {
		tr := Drain(mk(Config{Refs: 1234, Seed: 1}))
		if len(tr.Refs) != 1234 {
			t.Errorf("%s: got %d refs, want 1234", name, len(tr.Refs))
		}
		if tr.Name == "" {
			t.Errorf("%s: empty trace name", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for name, mk := range Sources {
		a := Drain(mk(Config{Refs: 500, Seed: 7}))
		b := Drain(mk(Config{Refs: 500, Seed: 7}))
		for i := range a.Refs {
			if a.Refs[i] != b.Refs[i] {
				t.Errorf("%s: ref %d differs between equal-seed runs", name, i)
				break
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a := Drain(SequentialSource(Config{Refs: 500, Seed: 1, LoadFraction: 0.3, JumpRate: 0.1}))
	b := Drain(SequentialSource(Config{Refs: 500, Seed: 2, LoadFraction: 0.3, JumpRate: 0.1}))
	same := 0
	for i := range a.Refs {
		if a.Refs[i] == b.Refs[i] {
			same++
		}
	}
	if same == len(a.Refs) {
		t.Error("different seeds produced identical traces")
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	cfg := Config{
		Refs: 5000, Seed: 3,
		CodeBase: 0x1000, CodeSize: 1 << 16,
		DataBase: 0x100000, DataSize: 1 << 18,
		LoadFraction: 0.5, WriteFraction: 0.3, JumpRate: 0.05,
	}
	tr := Drain(SequentialSource(cfg))
	for i, r := range tr.Refs {
		switch r.Kind {
		case Fetch:
			if r.Addr < cfg.CodeBase || r.Addr >= cfg.CodeBase+cfg.CodeSize {
				t.Fatalf("ref %d: fetch addr %#x outside code region", i, r.Addr)
			}
		case Load, Store:
			if r.Addr < cfg.DataBase || r.Addr >= cfg.DataBase+cfg.DataSize {
				t.Fatalf("ref %d: data addr %#x outside data region", i, r.Addr)
			}
		}
	}
}

func TestCodeOnlyHasNoData(t *testing.T) {
	n := countKinds(Drain(CodeOnlySource(Config{Refs: 2000, Seed: 4, JumpRate: 0.1})))
	if n[Load] != 0 || n[Store] != 0 {
		t.Errorf("code-only trace has %d loads, %d stores", n[Load], n[Store])
	}
	if n[Fetch] != 2000 {
		t.Errorf("code-only: %d fetches, want 2000", n[Fetch])
	}
}

func TestWriteFractionKnob(t *testing.T) {
	// The knob is stores / (loads + stores).
	writeFraction := func(f float64) float64 {
		n := countKinds(Drain(SequentialSource(Config{Refs: 20000, Seed: 5, LoadFraction: 0.5, WriteFraction: f})))
		return float64(n[Store]) / float64(n[Load]+n[Store])
	}
	flo, fhi := writeFraction(0.1), writeFraction(0.9)
	if math.Abs(flo-0.1) > 0.05 {
		t.Errorf("write fraction 0.1 knob produced %.3f", flo)
	}
	if math.Abs(fhi-0.9) > 0.05 {
		t.Errorf("write fraction 0.9 knob produced %.3f", fhi)
	}
}

func TestJumpRateAffectsSequentiality(t *testing.T) {
	seq := func(jr float64) float64 {
		tr := Drain(CodeOnlySource(Config{Refs: 20000, Seed: 6, JumpRate: jr}))
		sequential := 0
		var prev uint64
		for i, r := range tr.Refs {
			if i > 0 && r.Addr == prev+4 {
				sequential++
			}
			prev = r.Addr
		}
		return float64(sequential) / float64(len(tr.Refs)-1)
	}
	if s0, s5 := seq(0.0), seq(0.5); s0 < 0.99 || s5 > 0.6 {
		t.Errorf("jump knob broken: seq(0)=%.3f seq(0.5)=%.3f", s0, s5)
	}
}

func TestStreamingIsUnitStride(t *testing.T) {
	tr := Drain(StreamingSource(Config{Refs: 4000, Seed: 7}))
	var prev uint64
	first := true
	strided := 0
	dataRefs := 0
	for _, r := range tr.Refs {
		if r.Kind != Load && r.Kind != Store {
			continue
		}
		dataRefs++
		if !first && r.Addr == prev+4 {
			strided++
		}
		first = false
		prev = r.Addr
	}
	if dataRefs == 0 || float64(strided)/float64(dataRefs) < 0.95 {
		t.Errorf("streaming not unit-stride: %d/%d", strided, dataRefs)
	}
}

func TestPointerChaseLoadsAreRandomWide(t *testing.T) {
	tr := Drain(PointerChaseSource(Config{Refs: 4000, Seed: 8}))
	seen := map[uint64]bool{}
	loads := 0
	for _, r := range tr.Refs {
		if r.Kind == Load {
			loads++
			seen[r.Addr] = true
			if r.Size != 8 {
				t.Fatal("pointer chase loads should be 8 bytes")
			}
		}
	}
	if loads == 0 || len(seen) < loads*9/10 {
		t.Errorf("pointer-chase addresses not spread: %d unique of %d", len(seen), loads)
	}
}

func TestMatrixLikeHasStores(t *testing.T) {
	n := countKinds(Drain(MatrixLikeSource(Config{Refs: 6000, Seed: 9})))
	if n[Store] == 0 || n[Load] == 0 {
		t.Errorf("matrix-like missing loads/stores: %v", n)
	}
}

func TestMultiProcessRegionsAndQuanta(t *testing.T) {
	cfg := MultiProcessConfig{
		Config:  Config{Refs: 8000, Seed: 10, LoadFraction: 0.3, WriteFraction: 0.3},
		Quantum: 250,
	}
	tr := Drain(MultiProcessSource(cfg))
	if len(tr.Refs) != 8000 {
		t.Fatalf("refs = %d", len(tr.Refs))
	}
	// Every reference must sit inside exactly one process's region, and
	// quantum boundaries must rotate processes round-robin.
	owner := func(addr uint64) int {
		for p := range Processes {
			base, limit := ProcessRegion(p)
			if addr >= base && addr < limit {
				return p
			}
		}
		return -1
	}
	for i, r := range tr.Refs {
		p := owner(r.Addr)
		if p < 0 {
			t.Fatalf("ref %d addr %#x outside every region", i, r.Addr)
		}
		want := (i / cfg.Quantum) % Processes
		if p != want {
			t.Fatalf("ref %d owned by process %d, want %d (round robin)", i, p, want)
		}
	}
}

func TestMultiProcessDefaults(t *testing.T) {
	tr := Drain(MultiProcessSource(MultiProcessConfig{Config: Config{Refs: 1000, Seed: 1}}))
	if len(tr.Refs) != 1000 || tr.Name != "multi-process" {
		t.Errorf("defaults broken: %d refs, %q", len(tr.Refs), tr.Name)
	}
	base0, limit0 := ProcessRegion(0)
	base1, _ := ProcessRegion(1)
	if limit0 != base1 || base0 != 0 {
		t.Errorf("regions not contiguous: [%#x,%#x) then %#x", base0, limit0, base1)
	}
}

func TestMultiProcessDeterminism(t *testing.T) {
	cfg := MultiProcessConfig{Config: Config{Refs: 2000, Seed: 5}}
	a := Drain(MultiProcessSource(cfg))
	b := Drain(MultiProcessSource(cfg))
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			t.Fatal("multi-process trace not deterministic")
		}
	}
}
