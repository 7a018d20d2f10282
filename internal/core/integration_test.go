package core

// System-level integration tests: invariants that must hold for EVERY
// surveyed engine when composed with the full SoC — the properties the
// unit tests check per module, re-verified through the public path
// (LoadImage → Run → probe/DRAM/ReadPlain).

import (
	"bytes"
	"testing"

	"repro/internal/attack"
	"repro/internal/edu"
	"repro/internal/sim/addrmap"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// secretImage is deliberately repetitive: worst case for leak hiding.
func secretImage() []byte {
	return bytes.Repeat([]byte("CONFIDENTIAL CODE SEGMENT 0x00! "), 64)
}

// buildWith installs the image at 0 on a system with eng.
func buildWith(t *testing.T, eng edu.Engine) *soc.SoC {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Engine = eng
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadImage(0, secretImage()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEverySurveyedEngineHidesTheImage is the repository's headline
// invariant: for each catalogued engine, neither the bus probe nor a
// DRAM dump reveals installed plaintext, while the CPU-side view is
// intact.
func TestEverySurveyedEngineHidesTheImage(t *testing.T) {
	img := secretImage()
	for _, entry := range Survey() {
		entry := entry
		t.Run(entry.Key, func(t *testing.T) {
			eng, err := entry.Build()
			if err != nil {
				t.Fatal(err)
			}
			s := buildWith(t, eng)

			// CPU-side view intact.
			if got := s.ReadPlain(0, len(img)); !bytes.Equal(got, img) {
				t.Fatal("CPU-side view corrupted")
			}
			// DRAM image is ciphertext.
			if bytes.Contains(s.DRAM().Dump(0, len(img)), img[:16]) {
				t.Fatal("plaintext in external memory")
			}
			// Probe capture during a code sweep is ciphertext.
			probe := &attack.Probe{}
			s.Bus().Attach(probe)
			var refs []trace.Ref
			for a := uint64(0); a < uint64(len(img)); a += 32 {
				refs = append(refs, trace.Ref{Kind: trace.Fetch, Addr: a, Size: 4})
			}
			s.Run(&trace.Trace{Name: "sweep", Refs: refs})
			if probe.ContainsPlaintext(img[:16]) {
				t.Fatal("plaintext on the bus")
			}
		})
	}
}

// TestEverySurveyedEngineZeroAllocs pins the allocation-free hot loop
// for every catalogued engine, not only the ones the soc tests build.
// The DES engines reach crypto/des through cipher.Block, an edge the
// static call graph does not resolve, so this is the check that a buffer
// handed to the cipher stays off the heap.
func TestEverySurveyedEngineZeroAllocs(t *testing.T) {
	for _, entry := range Survey() {
		t.Run(entry.Key, func(t *testing.T) {
			eng, err := entry.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := soc.DefaultConfig()
			cfg.Engine = eng
			s, err := soc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := trace.SequentialSource(trace.Config{
				Refs: 5000, Seed: 1, LoadFraction: 0.35, WriteFraction: 0.3,
				JumpRate: 0.03, Locality: 0.7,
			})
			s.Run(src) // warm DRAM pages and engine state
			if avg := testing.AllocsPerRun(3, func() { s.Run(src) }); avg != 0 {
				t.Errorf("Run allocated %.1f times per 5k-ref run, want 0", avg)
			}
		})
	}
}

// hmacFlat is E17's flat authenticator: HMAC-SHA256 line tags, with
// on-chip freshness counters when fresh.
func hmacFlat(t *testing.T, fresh bool) *authtree.Flat {
	t.Helper()
	v, err := authtree.NewFlat(authtree.FlatConfig{
		Key: []byte("pin-key"), HMAC: true, Fresh: fresh, ProtectedLines: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestIntegrityEngineZeroAllocsPerRef pins E17's authenticated path
// (an engine beside an HMAC flat verifier) at 0 allocs/ref at both
// protection levels: a warmed run allocates nothing at 5k and at 50k
// refs. Reprolint cannot see into crypto/hmac, so this pin is what
// keeps keyedhash.MAC's tag buffer and line header in struct scratch:
// either one on the stack allocates once per line.
func TestIntegrityEngineZeroAllocsPerRef(t *testing.T) {
	for _, level := range []string{"mac", "mac+freshness"} {
		ver := hmacFlat(t, level == "mac+freshness")
		t.Run(level, func(t *testing.T) {
			eng, err := MustEntry("ds5002").Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := soc.DefaultConfig()
			cfg.Engine = eng
			cfg.Verifier = ver
			s, err := soc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rep soc.Report
			allocs := func(refs int) float64 {
				src := trace.SequentialSource(trace.Config{
					Refs: refs, Seed: 1, LoadFraction: 0.35, WriteFraction: 0.3,
					JumpRate: 0.03, Locality: 0.7,
				})
				rep = s.Run(src) // warm DRAM pages, tags and counters
				return testing.AllocsPerRun(2, func() { s.Run(src) })
			}
			if small, big := allocs(5000), allocs(50000); small != 0 || big != 0 {
				t.Errorf("warmed Run allocated %.1f times at 5k refs and %.1f at 50k, want 0", small, big)
			}
			if rep.AuthStalls == 0 || rep.AuthViolations != 0 {
				t.Errorf("%d auth stall cycles, %d violations on an untampered run", rep.AuthStalls, rep.AuthViolations)
			}
		})
	}
}

// TestEnginesDoNotPerturbCacheBehaviour: the EDU sits outside the cache,
// so hit/miss streams must be identical with and without it.
func TestEnginesDoNotPerturbCacheBehaviour(t *testing.T) {
	tr := trace.SequentialSource(trace.Config{Refs: 20000, Seed: 33, LoadFraction: 0.4, WriteFraction: 0.3, Locality: 0.6})
	var baseline *soc.Report
	for _, entry := range Survey() {
		eng, err := entry.Build()
		if err != nil {
			t.Fatal(err)
		}
		base, with, err := soc.Baselines{}.Compare(soc.DefaultConfig(), eng, tr)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = &base
		}
		if with.Cache.Misses != baseline.Cache.Misses || with.Cache.Hits != baseline.Cache.Hits {
			t.Errorf("%s: cache behaviour differs (misses %d vs %d)",
				entry.Key, with.Cache.Misses, baseline.Cache.Misses)
		}
		if with.Cycles < base.Cycles {
			t.Errorf("%s: encryption made the system FASTER (%d < %d)", entry.Key, with.Cycles, base.Cycles)
		}
	}
}

// TestRunsAreDeterministic: identical configurations and traces produce
// identical cycle counts — the property every experiment leans on.
func TestRunsAreDeterministic(t *testing.T) {
	tr := trace.PointerChaseSource(trace.Config{Refs: 10000, Seed: 44})
	for _, key := range []string{"aegis", "gi", "gilmont"} {
		runOnce := func() uint64 {
			eng, err := MustEntry(key).Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := soc.DefaultConfig()
			cfg.Engine = eng
			s, err := soc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s.Run(tr).Cycles
		}
		if a, b := runOnce(), runOnce(); a != b {
			t.Errorf("%s: nondeterministic runs (%d vs %d)", key, a, b)
		}
	}
}

// TestGilmontLeavesDataInClear: the survey's explicit caveat about [3] —
// static code ciphering only — must be visible on the simulated bus.
func TestGilmontLeavesDataInClear(t *testing.T) {
	eng, err := MustEntry("gilmont").Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Engine = eng
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	secretData := bytes.Repeat([]byte("USER PRIVATE DATA RECORD 00001! "), 4)
	dataBase := uint64(addrmap.CodeLimit) + 0x1000
	if err := s.LoadImage(dataBase, secretData); err != nil {
		t.Fatal(err)
	}
	// Data region: external memory holds it in clear.
	if !bytes.Contains(s.DRAM().Dump(dataBase, len(secretData)), secretData[:16]) {
		t.Error("gilmont should leave the data region unprotected (the survey's caveat)")
	}
	// Code region: protected.
	code := bytes.Repeat([]byte("CODE!CODE!CODE!CODE!CODE!CODE!!!"), 4)
	if err := s.LoadImage(0, code); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(s.DRAM().Dump(0, len(code)), code[:16]) {
		t.Error("gilmont failed to protect the code region")
	}
}

// TestFlatVerifierComposesWithSurveyEngines: the authenticator is
// orthogonal to the confidentiality engine, so every catalogued engine
// beside an HMAC flat-fresh verifier keeps the CPU view intact and
// fail-stops a spoofed line.
func TestFlatVerifierComposesWithSurveyEngines(t *testing.T) {
	img := secretImage()
	for _, entry := range Survey() {
		eng, err := entry.Build()
		if err != nil {
			t.Fatal(err)
		}
		ver := hmacFlat(t, true)
		cfg := soc.DefaultConfig()
		cfg.Engine = eng
		cfg.Verifier = ver
		s, err := soc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadImage(0, img); err != nil {
			t.Fatal(err)
		}
		if got := s.ReadPlain(0, len(img)); !bytes.Equal(got, img) {
			t.Errorf("%s+flat-fresh: CPU view corrupted", entry.Key)
		}
		// Tamper, then verify fail-stop through the system path.
		if out := attack.Spoof(s, 0x40, bytes.Repeat([]byte{0xAB}, 32)); out.Accepted {
			t.Errorf("%s+flat-fresh: spoof accepted", entry.Key)
		}
		if _, ok := ver.VerifyRead(0x40, s.DRAM().Dump(0x40, 32)); ok {
			t.Errorf("%s+flat-fresh: spoofed line verifies", entry.Key)
		}
	}
}

// TestWorkloadScalingSanity: doubling the trace roughly doubles cycles
// (steady state), for baseline and an engine system alike.
func TestWorkloadScalingSanity(t *testing.T) {
	eng, err := MustEntry("xom").Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(refs int, e edu.Engine) uint64 {
		cfg := soc.DefaultConfig()
		cfg.Engine = e
		s, err := soc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(trace.StreamingSource(trace.Config{Refs: refs, Seed: 55})).Cycles
	}
	small := run(20000, eng)
	big := run(40000, eng)
	ratio := float64(big) / float64(small)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("cycle scaling ratio %.2f, want ~2.0", ratio)
	}
}
