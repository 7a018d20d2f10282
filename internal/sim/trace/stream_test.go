package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"maps"
	"slices"
	"testing"
)

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

// pinnedSources are the sha256 digests of every seeded stream over the
// grid sourcesPinnedGrid walks, taken before the generators shared one
// step engine; a generator change that moves any reference moves its
// workload's digest.
var pinnedSources = map[string]string{
	"sequential":    "a2729dc8295b01c4249a0b4401068d0cca382b21446153ba5bdd229bca85663b",
	"code-only":     "0adc10c499f36864ff0fde6bc8340084429de9c7060bf163a03334c908776150",
	"streaming":     "a34f8d7c7842271373dbe498ec2789a394fd05d05079ffdce08fb4dbac4dd9bd",
	"pointer-chase": "ad9ecb710ed5c5b9a55f22afbe66b598d74db6ff6b659319373f0ae37a4e9490",
	"matrix-like":   "742080f8467b12e1e05377cca8447e95be860a8a49af369bdf77404084558fab",
	"firmware":      "ba363d8da734bde573d2dfefadb4d9a06b37fd20ce8a154dd7460312cf8bcf9d",
	"multi-process": "51d1dfde05d969115da1248d5fa6ddd016ce922739bf56f4da3feb63d757c231",
}

// hashStream drains src into h (its label, then each reference's kind,
// size, compute gap and address) and returns the reference count.
func hashStream(h hash.Hash, src RefSource) int {
	h.Write([]byte(src.Label()))
	var buf []byte
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		buf = append(buf, byte(r.Kind), r.Size)
		buf = binary.LittleEndian.AppendUint16(buf, r.Compute)
		buf = binary.LittleEndian.AppendUint64(buf, r.Addr)
	}
	h.Write(buf)
	return len(buf) / 12
}

// sourcesPinnedGrid calls visit with a fresh source for every workload
// over the pinned grid: lengths that cut each workload's fetch and data
// references at every position, several seeds, a knob set and the zero
// knob set, and (multi-process only) quanta around the default.
func sourcesPinnedGrid(visit func(name string, mk func() RefSource)) {
	knobSets := []Config{
		{JumpRate: 0.05, LoadFraction: 0.4, WriteFraction: 0.3, Locality: 0.6},
		{},
	}
	for _, knobs := range knobSets {
		for _, seed := range []int64{0, 7, 31337} {
			for _, refs := range []int{1, 2, 3, 4, 5, 7, 100, 1001, 30000} {
				cfg := knobs
				cfg.Seed, cfg.Refs = seed, refs
				for name, mkSource := range Sources {
					visit(name, func() RefSource { return mkSource(cfg) })
				}
				for _, quantum := range []int{0, 7, 500, 100000} {
					mp := MultiProcessConfig{Config: cfg, Quantum: quantum}
					visit("multi-process", func() RefSource { return MultiProcessSource(mp) })
				}
			}
		}
	}
}

// Every seeded stream is pinned by digest, and a Reset after draining
// just over half the stream replays the stream a fresh source emits.
func TestSourcesPinned(t *testing.T) {
	digests := map[string]hash.Hash{}
	sourcesPinnedGrid(func(name string, mk func() RefSource) {
		fresh := sha256.New()
		n := hashStream(fresh, mk())

		src := mk()
		for range n/2 + 1 {
			src.Next()
		}
		src.Reset()
		replay := sha256.New()
		hashStream(replay, src)
		if string(fresh.Sum(nil)) != string(replay.Sum(nil)) {
			t.Errorf("%s: Reset after a partial drain did not replay the stream", name)
		}

		if digests[name] == nil {
			digests[name] = sha256.New()
		}
		digests[name].Write(fresh.Sum(nil))
	})
	for name, want := range pinnedSources {
		if got := hex.EncodeToString(digests[name].Sum(nil)); got != want {
			t.Errorf("%s: stream digest %s, pinned %s", name, got, want)
		}
	}
}

// inRegions reports whether r lies where src may emit it: a fetch in
// the code region, a data reference in the data region (each process's
// own for multi-process), and no data reference from code-only.
func inRegions(src RefSource, r Ref) bool {
	if m, ok := src.(*multiSource); ok {
		p := int(r.Addr / (2 * regionBytes))
		if p >= len(m.subs) {
			return false
		}
		base, _ := ProcessRegion(p)
		return (r.Kind == Fetch) == (r.Addr < base+regionBytes)
	}
	g := src.(*gen)
	if r.Kind == Fetch {
		return r.Addr >= g.cfg.CodeBase && r.Addr < g.cfg.CodeBase+g.cfg.CodeSize
	}
	return g.name != "code-only" && r.Addr >= g.cfg.DataBase && r.Addr < g.cfg.DataBase+g.cfg.DataSize
}

// FuzzSources holds every seeded workload, at any seed, knob set,
// length up to 4096 and reset point, to three properties: exactly Refs
// references come out, a Reset after any prefix replays the whole
// stream, and every reference stays in its region (inRegions).
func FuzzSources(f *testing.F) {
	names := append(slices.Sorted(maps.Keys(Sources)), "multi-process")
	for w := range names {
		f.Add(uint8(w), int64(23), 0.05, 0.4, 0.3, 0.6, uint16(1001), uint16(500), uint16(7))
		f.Add(uint8(w), int64(0), 0.0, 0.0, 0.0, 0.0, uint16(4), uint16(1), uint16(0))
	}
	f.Fuzz(func(t *testing.T, w uint8, seed int64, jump, load, write, locality float64, refs, resetAt, quantum uint16) {
		name := names[int(w)%len(names)]
		cfg := Config{
			Refs: 1 + int(refs)%4096, Seed: seed,
			JumpRate: jump, LoadFraction: load, WriteFraction: write, Locality: locality,
		}
		mk := func() RefSource {
			if name == "multi-process" {
				return MultiProcessSource(MultiProcessConfig{Config: cfg, Quantum: int(quantum)})
			}
			return Sources[name](cfg)
		}
		src := mk()
		want := Drain(src).Refs
		if len(want) != cfg.Refs {
			t.Fatalf("%s: %d refs, want %d", name, len(want), cfg.Refs)
		}
		for i, r := range want {
			if !inRegions(src, r) {
				t.Fatalf("%s: ref %d (%v at %#x) outside its region", name, i, r.Kind, r.Addr)
			}
		}
		src = mk()
		for range int(resetAt) % (cfg.Refs + 1) {
			src.Next()
		}
		src.Reset()
		if got := Drain(src).Refs; !slices.Equal(got, want) {
			t.Fatalf("%s: Reset after %d refs did not replay the stream", name, int(resetAt)%(cfg.Refs+1))
		}
	})
}
