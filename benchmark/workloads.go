package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/edu"
	"repro/internal/obs"
	"repro/internal/sim/dram"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// sizes fixes how big each op is. A run repeats ops for --seconds; op
// sizes do not depend on it, so the same seed always gives the same
// outputs.
type sizes struct {
	// simRefs is the reference count of one simulator op, by workload.
	simRefs map[string]int
	// surveyRefs is the trace length every experiment of a suite pass
	// runs at; surveyIDs the experiments of a pass (nil: E1–E22).
	surveyRefs int
	surveyIDs  []string
	// sweepRefs is the refs axis the sweepd specs draw from.
	sweepRefs []int
	// golden reports whether the digests in golden.json apply: they were
	// taken at these sizes.
	golden bool
}

// standard is the benchmark's own size; the smoke test shrinks it.
var standard = sizes{
	simRefs: map[string]int{
		"aegis-seq":         20_000,
		"plain-l2-chase":    400_000,
		"verified-firmware": 200_000,
	},
	surveyRefs: 3000,
	sweepRefs:  []int{2000, 3000, 4000, 6000},
	golden:     true,
}

// The survey and sweepd workloads set up in bursts of setupBurst, spread
// over the run (before each suite pass; between the sweepd session's
// sweepdParts), so setup_s is a median over the run like the simulator
// workloads', which set up once per op.
const (
	setupBurst  = 8
	sweepdParts = 20
)

// sweepdRate is the requests per second the two sweepd clients send
// together, submits and refetches alike. On the reference host the
// service keeps up with it after the first seconds of fresh simulations,
// so a session does a fixed amount of work in --seconds; a session
// driven as fast as the service answers would retain more sweeps, and so
// use more memory, the faster the service is.
const sweepdRate = 300

// workload is one benchmark input: what it runs with tracing off.
type workload struct {
	name, why string
	run       func(b *bench)
}

func workloads() []workload {
	var out []workload
	for _, w := range sims {
		out = append(out, workload{w.name, w.why, w.run})
	}
	return append(out,
		workload{"survey", "the E1-E22 table regeneration users run; mixes every layer behind a 2-worker pool", runSurvey},
		workload{"sweepd", "the sweep service: 2 clients paced at 300 requests/s, memo-served cells beside fresh simulations", runSweepd},
	)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// simWorkload is one simulated system driven by one synthetic trace. An
// op builds a fresh system and source (the set-up, since a reused SoC
// keeps cumulative cache and bus statistics) and runs it once.
type simWorkload struct {
	name, why string
	// profile names the core.WorkloadProfile trace; engine and auth the
	// registry keys of the engine and verifier ("" for none); l2 the L2
	// size in bytes (0 for none).
	profile, engine, auth string
	l2                    int
	// observed installs a live metrics registry, as the sweep service's
	// tasks run.
	observed bool
}

var sims = []simWorkload{
	{
		name: "aegis-seq", why: "AES-CBC engine on a sequential trace: cipher, mode and engine are ~95% of host time",
		profile: "sequential", engine: "aegis",
	},
	{
		name: "plain-l2-chase", why: "no crypto, L2 and live metrics on pointer-chase: SoC accounting, caches, trace and obs",
		profile: "pointer-chase", l2: 64 << 10, observed: true,
	},
	{
		name: "verified-firmware", why: "byte cipher plus hash-tree verifier on firmware: the authenticator is about a third of host time",
		profile: "firmware", engine: "ds5002", auth: "tree",
	},
}

// system builds the workload's SoC configuration with fresh engine and
// verifier state; observed installs a live metrics registry.
func (w simWorkload) system(observed bool) (soc.Config, error) {
	cfg := soc.DefaultConfig()
	cfg.Engine = edu.Null{}
	if w.engine != "" {
		eng, err := core.MustEntry(w.engine).Build()
		if err != nil {
			return cfg, err
		}
		cfg.Engine = eng
	}
	if w.auth != "" {
		ver, err := core.BuildAuthenticator(w.auth, cfg.Cache.LineSize)
		if err != nil {
			return cfg, err
		}
		cfg.Verifier = ver
	}
	if w.l2 > 0 {
		cfg.L2 = soc.DefaultL2Config(w.l2)
	}
	if observed {
		cfg.Metrics = soc.NewMetrics(obs.NewRegistry())
	}
	return cfg, nil
}

func (w simWorkload) source(seed int64, refs int) trace.RefSource {
	p, _ := core.WorkloadProfile(w.profile, refs)
	p.Seed = seed
	return trace.Sources[w.profile](p)
}

// pageBytes is the granule of the output digest's memory footprint.
const pageBytes = 4096

// footprint lists, in address order, the external-memory pages the
// workload's trace at seed touches.
func (w simWorkload) footprint(seed int64, refs int) []uint64 {
	seen := make(map[uint64]bool)
	src := w.source(seed, refs)
	for ref, ok := src.Next(); ok; ref, ok = src.Next() {
		seen[ref.Addr&^(pageBytes-1)] = true
		seen[(ref.Addr+uint64(ref.Size)-1)&^(pageBytes-1)] = true
	}
	pages := slices.Collect(maps.Keys(seen))
	slices.Sort(pages)
	return pages
}

// opResult is what one simulator op measured and produced.
type opResult struct {
	setup, wall time.Duration
	rep         soc.Report
	// digest is the sha256 of the op's output: its Report and the final
	// external-memory image over the trace's footprint, the ciphertext
	// the engine left for a bus prober to dump.
	digest string
}

// op sets up a fresh system and runs it once; pages is the trace's
// footprint. With sp non-nil the engine, verifier and source are wrapped
// in timing decorators that record into sp.
func (w simWorkload) op(seed int64, refs int, pages []uint64, observed bool, sp *spans) (opResult, error) {
	runtime.GC()
	t0 := time.Now()
	cfg, err := w.system(observed)
	if err != nil {
		return opResult{}, err
	}
	src := w.source(seed, refs)
	if sp != nil {
		cfg.Engine = wrapEngine(cfg.Engine, sp)
		if cfg.Verifier != nil {
			cfg.Verifier = &timedVerifier{Verifier: cfg.Verifier, sp: sp}
		}
		src = &timedSource{RefSource: src, sp: sp}
	}
	s, err := soc.New(cfg)
	if err != nil {
		return opResult{}, err
	}
	t1 := time.Now()
	rep := s.Run(src)
	r := opResult{setup: t1.Sub(t0), wall: time.Since(t1), rep: rep}
	r.digest, err = outputDigest(rep, s.DRAM(), pages)
	return r, err
}

// outputDigest hashes a Report's JSON form and then the memory image
// page by page.
func outputDigest(rep soc.Report, mem *dram.DRAM, pages []uint64) (string, error) {
	js, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(js)
	page := make([]byte, pageBytes)
	for _, p := range pages {
		mem.ReadInto(p, page)
		h.Write(page)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// check verifies one op: the whole trace ran, the L1 saw every
// reference once, nothing was tampered with, and the output matches the
// pinned and the first op's.
func (w simWorkload) check(b *bench, refs int, r opResult) error {
	switch rep := r.rep; {
	case rep.Refs != uint64(refs):
		return fmt.Errorf("%s: ran %d refs, want %d", w.name, rep.Refs, refs)
	case rep.Cache.Hits+rep.Cache.Misses != rep.Refs:
		return fmt.Errorf("%s: L1 hits+misses %d != refs %d", w.name, rep.Cache.Hits+rep.Cache.Misses, rep.Refs)
	case rep.AuthViolations != 0:
		return fmt.Errorf("%s: %d verification failures without an adversary", w.name, rep.AuthViolations)
	}
	return b.same(w.name, r.digest)
}

// pinCheck runs, untimed, the seed-1 op that golden.json pins, so that
// a run at any seed checks the simulator against its output from before
// this benchmark existed. At seed 1 the run's own ops are checked
// against the pin.
func (w simWorkload) pinCheck(b *bench, refs int) {
	if !b.sz.golden || b.seed == 1 {
		return
	}
	r, err := w.op(1, refs, w.footprint(1, refs), w.observed, nil)
	if err == nil && r.digest != pinned[w.name] {
		err = fmt.Errorf("%s: seed-1 output digest %s, pinned %s", w.name, r.digest, pinned[w.name])
	}
	b.op(err)
}

// run is the end-to-end workload: fresh-system ops, each timed from the
// first reference to the Report.
func (w simWorkload) run(b *bench) {
	refs := b.sz.simRefs[w.name]
	w.pinCheck(b, refs)
	pages := w.footprint(b.seed, refs)
	var setups, walls []float64
	for start, i := time.Now(), 0; b.more(start, i, 3); i++ {
		r, err := w.op(b.seed, refs, pages, w.observed, nil)
		if err == nil {
			setups = append(setups, r.setup.Seconds())
			walls = append(walls, ms(r.wall))
			err = w.check(b, refs, r)
		}
		b.op(err)
	}
	b.putRSS()
	putOps(b, walls)
	b.put("setup_s", median(setups))
}

// putOps records the fastest op; the status line also states the
// median and the tail, which do not repeat across runs.
func putOps(b *bench, walls []float64) {
	if len(walls) == 0 {
		b.op(fmt.Errorf("no op completed"))
		return
	}
	t, pct := tail(walls)
	fmt.Fprintf(statusOut, "ops %d: min %.4g ms, p50 %.4g ms, tail p%.1f %.4g ms\n",
		len(walls), slices.Min(walls), median(walls), pct, t)
	b.put("op_min_ms", slices.Min(walls))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// experiments resolves a suite's experiment list (nil: the whole suite).
func experiments(ids []string) []core.Experiment {
	if ids == nil {
		return core.Experiments()
	}
	var out []core.Experiment
	for _, id := range ids {
		if e, ok := core.ExperimentByID(id); ok {
			out = append(out, e)
		}
	}
	return out
}

// buildRegistries is the survey's set-up: every engine and
// authenticator the registries define, key schedules included.
func buildRegistries() error {
	for _, e := range core.Survey() {
		if _, err := e.Build(); err != nil {
			return err
		}
	}
	for _, a := range core.Authenticators() {
		if _, err := a.Build(32); err != nil {
			return err
		}
	}
	return nil
}

// timeSetups times setupBurst back-to-back set-ups and appends their
// durations to setups; setup returns what to release once its clock has
// stopped. A set-up takes tens of microseconds, so the first of a burst
// reads whatever state the work before it left in the allocator and
// caches, two to four times slower than the rest; the burst's later
// set-ups keep the run's median off that state.
func timeSetups(b *bench, setups []float64, setup func() (func(), error)) []float64 {
	for i := 0; i < setupBurst; i++ {
		t := time.Now()
		release, err := setup()
		if err != nil {
			b.op(fmt.Errorf("set-up: %w", err))
			break
		}
		setups = append(setups, time.Since(t).Seconds())
		release()
	}
	return setups
}

// runSurvey times whole suite passes on the campaign pool at 2 workers,
// with a burst of set-ups before each.
func runSurvey(b *bench) {
	var setups, walls []float64
	for start, i := time.Now(), 0; b.more(start, i, 1); i++ {
		setups = timeSetups(b, setups, func() (func(), error) { return func() {}, buildRegistries() })
		runtime.GC()
		t0 := time.Now()
		tables, err := campaign.RunSuite(b.sz.surveyIDs, b.sz.surveyRefs, 2)
		if err == nil {
			walls = append(walls, ms(time.Since(t0)))
			err = b.same("survey", tablesDigest(tables))
		}
		b.op(err)
	}
	b.putRSS()
	putOps(b, walls)
	b.put("setup_s", median(setups))
}

// runSweepd times a session of two paced closed-loop clients against an
// in-process sweep service, then checks every CSV the service returned
// against the CLI's runner on the same spec. The session runs in
// sweepdParts time slices on one server; between slices, with both
// clients idle, a burst of spare servers is set up and closed, so the
// set-ups are spread over the run.
func runSweepd(b *bench) {
	// Each client's plan holds more requests than the session sends.
	plan := sweepPlan(b.seed, b.count(sweepdRate, 4), b.sz.sweepRefs)
	srv, err := startServer()
	if err != nil {
		b.op(fmt.Errorf("sweepd set-up: %w", err))
		return
	}
	start := time.Now()
	sess := &session{start: start, gap: clients * time.Second / sweepdRate}
	var setups []float64
	for k := 1; k <= sweepdParts; k++ {
		setups = timeSetups(b, setups, func() (func(), error) {
			spare, err := startServer()
			if err != nil {
				return nil, err
			}
			return spare.close, nil
		})
		srv.run(sess, plan, start.Add(time.Duration(b.seconds*float64(k)/sweepdParts*float64(time.Second))), false)
	}
	srv.close()
	b.putRSS()
	fmt.Fprintf(statusOut, "session %.3g s, %.4g submits/s\n", sess.wall.Seconds(), float64(len(sess.submitMS))/sess.wall.Seconds())
	putOps(b, sess.submitMS)
	b.put("setup_s", median(setups))
	b.expect(sess, 2)
	b.verify(sess)
}

// tablesDigest is the sha256 of the tables' text, in suite order.
func tablesDigest(tables []*core.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

//go:embed golden.json
var goldenJSON []byte

// pinned maps each output key (a simulator workload's single-op output
// at seed 1, or the survey's tables) to its sha256 at the standard
// sizes, as produced by the unmodified simulator (golden_test.go
// regenerates it with -update).
var pinned = func() map[string]string {
	m := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("benchmark: golden.json: " + err.Error())
	}
	return m
}()
