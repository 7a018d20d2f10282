package trace

import "testing"

func streamCfg() Config {
	return Config{
		Refs: 7000, Seed: 23,
		LoadFraction: 0.4, WriteFraction: 0.3, JumpRate: 0.05, Locality: 0.6,
	}
}

// Reset must replay the exact stream, for every registered workload and
// for the multi-process workload.
func TestStreamResetReplays(t *testing.T) {
	sources := map[string]RefSource{
		"multi-process": MultiProcessSource(MultiProcessConfig{Config: streamCfg(), Quantum: 250}),
	}
	for name, mkSource := range Sources {
		sources[name] = mkSource(streamCfg())
	}
	for name, src := range sources {
		first := Drain(src)
		src.Reset()
		second := Drain(src)
		if len(first.Refs) != len(second.Refs) {
			t.Fatalf("%s: replay length %d != %d", name, len(second.Refs), len(first.Refs))
		}
		for i := range first.Refs {
			if first.Refs[i] != second.Refs[i] {
				t.Fatalf("%s: replay diverged at ref %d", name, i)
			}
		}
	}
}

// A pristine source tolerates Reset (soc.Run rewinds unconditionally).
func TestPristineResetIsNoop(t *testing.T) {
	src := SequentialSource(Config{Refs: 100, Seed: 5})
	src.Reset()
	if tr := Drain(src); len(tr.Refs) != 100 {
		t.Errorf("got %d refs after pristine reset", len(tr.Refs))
	}
}

// A *Trace is itself a RefSource: Next walks the slice, Reset rewinds.
func TestTraceIsARefSource(t *testing.T) {
	tr := Drain(SequentialSource(Config{Refs: 50, Seed: 2}))
	var src RefSource = tr
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 50 {
		t.Fatalf("trace source yielded %d refs, want 50", n)
	}
	src.Reset()
	if r, ok := src.Next(); !ok || r != tr.Refs[0] {
		t.Error("reset trace source did not replay from the first ref")
	}
}

// The multi-process stream must equal its definition: quantum-sized
// slices taken round robin from each process's own sequential stream,
// confined to the process's regions and seeded Seed + p*7919.
func TestMultiProcessSourceMatchesTrace(t *testing.T) {
	cfg := MultiProcessConfig{
		Config:  Config{Refs: 6000, Seed: 31, LoadFraction: 0.3, WriteFraction: 0.3},
		Quantum: 250,
	}
	procs := make([]RefSource, Processes)
	for p := range procs {
		base, _ := ProcessRegion(p)
		sub := cfg.Config
		sub.Seed = cfg.Seed + int64(p)*7919
		sub.CodeBase, sub.CodeSize = base, regionBytes
		sub.DataBase, sub.DataSize = base+regionBytes, regionBytes
		procs[p] = SequentialSource(sub)
	}
	src := MultiProcessSource(cfg)
	for i := 0; i < cfg.Refs; i++ {
		want, _ := procs[(i/cfg.Quantum)%Processes].Next()
		got, ok := src.Next()
		if !ok {
			t.Fatalf("stream dried up at ref %d", i)
		}
		if got != want {
			t.Fatalf("ref %d differs: stream %+v, process slice %+v", i, got, want)
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("stream longer than Refs")
	}
}
