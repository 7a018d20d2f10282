// Package repro's root bench file regenerates every quantitative claim
// of the survey (DESIGN.md's experiment index E1–E22): run
//
//	go test -bench=. -benchmem
//
// Each BenchmarkE* submits its experiment through the campaign
// scheduler (internal/campaign) and, on the first iteration, prints the
// regenerated table so the bench log doubles as the paper-vs-measured
// record that EXPERIMENTS.md cites. BenchmarkSuite* run the whole suite
// and the grid sweep at -jobs 1 vs one-per-CPU, so the bench log also
// records the parallel speedup.
package repro

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crypto/stream"
	"repro/internal/edu"
	"repro/internal/edu/streamengine"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// benchRefs keeps each simulation short enough for -bench=. to complete
// quickly while staying in the calibrated regime.
const benchRefs = 30000

var printOnce sync.Map

// runExperiment submits experiment id to the campaign scheduler b.N
// times, printing its table once.
func runExperiment(b *testing.B, id string, refs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := campaign.RunSuite([]string{id}, refs, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			b.Log("\n" + tables[0].String())
		}
	}
}

func BenchmarkE1SurveyTable(b *testing.B)          { runExperiment(b, "E1", benchRefs) }
func BenchmarkE2StreamVsBlock(b *testing.B)        { runExperiment(b, "E2", benchRefs) }
func BenchmarkE3WritePenalty(b *testing.B)         { runExperiment(b, "E3", benchRefs) }
func BenchmarkE4ECBLeakage(b *testing.B)           { runExperiment(b, "E4", benchRefs) }
func BenchmarkE5CBCRandomAccess(b *testing.B)      { runExperiment(b, "E5", benchRefs) }
func BenchmarkE6Aegis(b *testing.B)                { runExperiment(b, "E6", benchRefs) }
func BenchmarkE7XomPipeline(b *testing.B)          { runExperiment(b, "E7", benchRefs) }
func BenchmarkE8Gilmont(b *testing.B)              { runExperiment(b, "E8", 60000) }
func BenchmarkE9KuhnAttack(b *testing.B)           { runExperiment(b, "E9", benchRefs) }
func BenchmarkE10CodePack(b *testing.B)            { runExperiment(b, "E10", benchRefs) }
func BenchmarkE11CacheSideEDU(b *testing.B)        { runExperiment(b, "E11", benchRefs) }
func BenchmarkE12CompressThenEncrypt(b *testing.B) { runExperiment(b, "E12", benchRefs) }
func BenchmarkE13BruteForce(b *testing.B)          { runExperiment(b, "E13", benchRefs) }
func BenchmarkE14KeyExchange(b *testing.B)         { runExperiment(b, "E14", benchRefs) }
func BenchmarkE15BestCipher(b *testing.B)          { runExperiment(b, "E15", benchRefs) }
func BenchmarkE16VlsiDma(b *testing.B)             { runExperiment(b, "E16", benchRefs) }
func BenchmarkE17Integrity(b *testing.B)           { runExperiment(b, "E17", benchRefs) }
func BenchmarkE18Ablations(b *testing.B)           { runExperiment(b, "E18", benchRefs) }
func BenchmarkE19KeyManagement(b *testing.B)       { runExperiment(b, "E19", benchRefs) }
func BenchmarkE20AuthTrees(b *testing.B)           { runExperiment(b, "E20", benchRefs) }
func BenchmarkE21AttackSweep(b *testing.B)         { runExperiment(b, "E21", benchRefs) }
func BenchmarkE22Hierarchy(b *testing.B)           { runExperiment(b, "E22", benchRefs) }

// suiteBench runs the full E1–E22 suite at a fixed worker count; the
// Sequential/Parallel pair measures the scheduler's wall-clock win.
func suiteBench(b *testing.B, jobs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.RunSuite(nil, 10000, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteSequential(b *testing.B) { suiteBench(b, 1) }
func BenchmarkSuiteParallel(b *testing.B)   { suiteBench(b, campaign.DefaultJobs()) }

// sweepBench runs a full-registry grid sweep at a fixed worker count.
func sweepBench(b *testing.B, jobs int) {
	b.Helper()
	spec := campaign.Spec{Refs: []int{10000}}
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Sweep(spec, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepGridSequential(b *testing.B) { sweepBench(b, 1) }
func BenchmarkSweepGridParallel(b *testing.B)   { sweepBench(b, campaign.DefaultJobs()) }

// reportPerRef attaches ns/ref and refs/s to the benchmark line,
// normalized by how many simulated references one benchmark op
// performs, so hot loops of different batch sizes compare directly.
// Call after the timed section.
func reportPerRef(b *testing.B, refsPerOp int) {
	b.Helper()
	refs := float64(b.N) * float64(refsPerOp)
	if ns := float64(b.Elapsed().Nanoseconds()); ns > 0 {
		b.ReportMetric(ns/refs, "ns/ref")
		b.ReportMetric(refs/b.Elapsed().Seconds(), "refs/s")
	}
}

// hotLoopBench drives one SoC with a streaming source of exactly b.N
// references, so ns/op is nanoseconds per reference and allocs/op is
// allocations per reference — the number the allocation-free hot path
// pins at 0 (see soc.TestHotLoopZeroAllocs for the hard assertion).
// A warm run outside the timer pre-faults DRAM pages and metric cells,
// so the report stays 0 allocs/op even at -benchtime 1x (the CI bench
// smoke runs exactly one iteration and asserts 0 allocs/op).
// withMetrics additionally installs a live obs registry, so the bench
// log also proves the 0 allocs/op contract holds under
// instrumentation.
func hotLoopBench(b *testing.B, engineKey string, withMetrics, withTrace bool) {
	b.Helper()
	cfg := soc.DefaultConfig()
	if engineKey != "" {
		eng, err := core.MustEntry(engineKey).Build()
		if err != nil {
			b.Fatal(err)
		}
		cfg.Engine = eng
	}
	if withMetrics {
		cfg.Metrics = soc.NewMetrics(obs.NewRegistry())
	}
	if withTrace {
		cfg.Recorder = rec.New(1 << 16)
	}
	s, err := soc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mkSrc := func(refs int) trace.RefSource {
		return trace.SequentialSource(trace.Config{
			Refs: refs, Seed: 1,
			LoadFraction: 0.35, WriteFraction: 0.3, JumpRate: 0.03, Locality: 0.7,
		})
	}
	s.Run(mkSrc(20000)) // warm DRAM pages, metric cells, recorder ring
	src := mkSrc(b.N)
	b.SetBytes(int64(cfg.Bus.WidthBytes)) // architectural bytes per reference
	startAllocWindow(b)
	s.Run(src)
	b.StopTimer()
	reportPerRef(b, 1)
}

// startAllocWindow opens a gated benchmark's timed window on a quiet
// runtime. allocs/op counts every heap allocation in the process, and
// the runtime allocates on its own after a GC cycle: the unique-map
// cleanup that net/netip's handles register (net/http links it in)
// takes 2 objects, 48 B, per cycle, and a P's timer heap grows by one
// object now and then. A cycle that the setup started and that ended
// inside the window read as 48 B/op, 2 allocs/op at -benchtime 1x. So
// collect first and wait until the process has gone quietMs
// milliseconds without an allocation (at most maxWaitMs); the window
// still counts every allocation the timed loop makes.
func startAllocWindow(b *testing.B) {
	b.Helper()
	const quietMs, maxWaitMs = 5, 200
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	last, quiet := ms.Mallocs, 0
	for i := 0; i < maxWaitMs && quiet < quietMs; i++ {
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&ms)
		if ms.Mallocs == last {
			quiet++
		} else {
			last, quiet = ms.Mallocs, 0
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
}

func BenchmarkHotLoopPlaintext(b *testing.B)    { hotLoopBench(b, "", false, false) }
func BenchmarkHotLoopAegis(b *testing.B)        { hotLoopBench(b, "aegis", false, false) }
func BenchmarkHotLoopInstrumented(b *testing.B) { hotLoopBench(b, "aegis", true, false) }

// BenchmarkHotLoopDS5240 puts a 3-DES engine (the registry's ds5240,
// 16-byte EDE2 key) under the CI bench smoke's 0 allocs/op gate: its
// blocks reach crypto/des through cipher.Block, which the static call
// graph does not follow. One op is a whole warmed 20k-reference run, as
// in BenchmarkAuthTreeVerifiedRun, because at -benchtime 1x a single
// reference never reaches the engine's encrypt path, and the gate would
// not see an allocation there.
func BenchmarkHotLoopDS5240(b *testing.B) {
	eng, err := core.MustEntry("ds5240").Build()
	if err != nil {
		b.Fatal(err)
	}
	warmRunBench(b, eng)
}

// BenchmarkHotLoopStream puts the Figure 7a stream engine (E2 and E11's
// address-seeded Geffe pads) under the same gate: its pad XOR runs on
// every line fill and spill and holds no scratch buffer, so an
// allocation there shows here.
func BenchmarkHotLoopStream(b *testing.B) {
	eng, err := streamengine.New(stream.NewPadSource(0x7A, soc.DefaultConfig().Cache.LineSize))
	if err != nil {
		b.Fatal(err)
	}
	warmRunBench(b, eng)
}

// warmRunBench times warmed 20k-reference sequential runs of a system
// with eng installed, one run per op.
func warmRunBench(b *testing.B, eng edu.Engine) {
	cfg := soc.DefaultConfig()
	cfg.Engine = eng
	s, err := soc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := trace.SequentialSource(trace.Config{
		Refs: 20000, Seed: 1,
		LoadFraction: 0.35, WriteFraction: 0.3, JumpRate: 0.03, Locality: 0.7,
	})
	s.Run(src) // warm DRAM pages
	startAllocWindow(b)
	for i := 0; i < b.N; i++ {
		s.Run(src)
	}
	b.StopTimer()
	reportPerRef(b, 20000)
}

// BenchmarkHotLoopTraced is the flight-recorder pin: full metrics
// instrumentation plus a live recorder ring, still 0 allocs/op — the
// CI bench smoke asserts it (the hard per-path assertion lives in
// soc.TestHotLoopZeroAllocsTraced).
func BenchmarkHotLoopTraced(b *testing.B) { hotLoopBench(b, "aegis", true, true) }

// BenchmarkHotLoopL2 drives b.N references through a two-level system
// (64 KiB L2, AEGIS engine at the outer boundary, counter-tree
// verifier installed) with the first run outside the timer as warmup,
// so allocs/op is allocations per reference on the L2 miss path — the
// CI bench smoke asserts it prints "0 allocs/op" (the hard per-path
// assertion lives in soc.TestHotLoopZeroAllocsL2).
func BenchmarkHotLoopL2(b *testing.B) {
	eng, err := core.MustEntry("aegis").Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.L2 = soc.DefaultL2Config(64 << 10)
	cfg.Engine = eng
	if cfg.Verifier, err = core.BuildAuthenticator("ctree", cfg.Cache.LineSize); err != nil {
		b.Fatal(err)
	}
	s, err := soc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mkSrc := func(refs int) trace.RefSource {
		return trace.SequentialSource(trace.Config{
			Refs: refs, Seed: 1,
			LoadFraction: 0.35, WriteFraction: 0.3, JumpRate: 0.03, Locality: 0.7,
		})
	}
	s.Run(mkSrc(20000)) // warm DRAM pages, tag stores, node cache, event buffers
	src := mkSrc(b.N)
	b.SetBytes(int64(cfg.Bus.WidthBytes))
	startAllocWindow(b)
	s.Run(src)
	b.StopTimer()
	reportPerRef(b, 1)
}

// BenchmarkAuthTreeVerifiedRun drives a fixed 20k-reference firmware
// workload through an XOM system with a counter-tree authenticator,
// warmed before the timer starts, so allocs/op is the allocation count
// of a whole steady-state verified run — the CI bench smoke asserts it
// prints "0 allocs/op" (the hard per-path assertion lives in
// soc.TestVerifiedMissZeroAllocs).
func BenchmarkAuthTreeVerifiedRun(b *testing.B) {
	ver, err := core.BuildAuthenticator("ctree", soc.DefaultConfig().Cache.LineSize)
	if err != nil {
		b.Fatal(err)
	}
	verifiedRunBench(b, ver)
}

// BenchmarkHMACFlatVerifiedRun is the same warmed verified run under
// E17's flat authenticator: HMAC-SHA256 line tags plus on-chip
// freshness counters. The CI bench smoke asserts "0 allocs/op" (the
// hard per-path assertion lives in core.TestIntegrityEngineZeroAllocsPerRef).
func BenchmarkHMACFlatVerifiedRun(b *testing.B) {
	ver, err := authtree.NewFlat(authtree.FlatConfig{
		Key: []byte("tag-key"), HMAC: true, Fresh: true, ProtectedLines: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	verifiedRunBench(b, ver)
}

// verifiedRunBench times warmed 20k-reference firmware runs of an XOM
// system with ver installed, one run per op.
func verifiedRunBench(b *testing.B, ver edu.Verifier) {
	eng, err := core.MustEntry("xom").Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Engine = eng
	cfg.Verifier = ver
	s, err := soc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	profile, _ := core.WorkloadProfile("firmware", 20000)
	profile.Seed = 7
	src := trace.FirmwareSource(profile)
	s.Run(src) // warm tag stores, node cache, DRAM pages
	startAllocWindow(b)
	for i := 0; i < b.N; i++ {
		s.Run(src)
	}
	b.StopTimer()
	reportPerRef(b, 20000)
}

// BenchmarkReprolintAnalyze measures the static-contract linter's full
// cost — module load, devirtualized call-graph construction, and every
// analyzer — so graph growth that pushes lint toward the CI wall-time
// cap can be profiled before it surfaces as a red build.
func BenchmarkReprolintAnalyze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := analysis.Load(".", "./...")
		if err != nil {
			b.Fatal(err)
		}
		res, err := prog.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Diags) > 0 {
			b.Fatalf("tree not clean under reprolint: %d diagnostic(s)", len(res.Diags))
		}
	}
}
