package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crypto/aes"
	"repro/internal/crypto/des"
	"repro/internal/crypto/ghash"
	"repro/internal/crypto/keyedhash"
	"repro/internal/crypto/modes"
	"repro/internal/edu"
	"repro/internal/sim/cache"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// ladderReps is how many traced and untraced ops each simulator ladder
// alternates; ladderSubmitsPerSecond sizes the campaign replay and the
// serve session from --seconds.
const (
	ladderReps             = 5
	ladderSubmitsPerSecond = 4
)

// span accumulates the calls into one layer and the host time they
// took, clock reads included.
type span struct{ n, ns int64 }

func (s *span) add(t time.Time) {
	s.n++
	//repro:allow benchmark timing decorator; only the traced run installs it, never simulator or campaign code
	s.ns += int64(time.Since(t))
}

// perCall is the mean host time of one call net of the clock cost.
func (s span) perCall(clock float64) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns)/float64(s.n) - clock
}

// spans are the layer boundaries a traced simulator op records.
type spans struct{ enc, dec, verify, update, next span }

// timedEngine times an engine's line transforms.
type timedEngine struct {
	edu.Engine
	sp *spans
}

func (e *timedEngine) EncryptLine(addr uint64, dst, src []byte) {
	//repro:allow benchmark timing decorator; only the traced run installs it, never simulator or campaign code
	t := time.Now()
	e.Engine.EncryptLine(addr, dst, src)
	e.sp.enc.add(t)
}

func (e *timedEngine) DecryptLine(addr uint64, dst, src []byte) {
	//repro:allow benchmark timing decorator; only the traced run installs it, never simulator or campaign code
	t := time.Now()
	e.Engine.DecryptLine(addr, dst, src)
	e.sp.dec.add(t)
}

// timedSizer is a timedEngine around an engine that also sizes its bus
// transfers; the SoC finds that by type assertion, so the decorator
// must keep it.
type timedSizer struct {
	*timedEngine
	ts edu.TransferSizer
}

func (e timedSizer) TransferBytes(addr uint64, lineBytes int) int {
	return e.ts.TransferBytes(addr, lineBytes)
}

func wrapEngine(eng edu.Engine, sp *spans) edu.Engine {
	te := &timedEngine{Engine: eng, sp: sp}
	if ts, ok := eng.(edu.TransferSizer); ok {
		return timedSizer{te, ts}
	}
	return te
}

// timedVerifier times a memory authenticator's reads and writes.
type timedVerifier struct {
	edu.Verifier
	sp *spans
}

func (v *timedVerifier) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	//repro:allow benchmark timing decorator; only the traced run installs it, never simulator or campaign code
	t := time.Now()
	stall, ok := v.Verifier.VerifyRead(addr, ct)
	v.sp.verify.add(t)
	return stall, ok
}

func (v *timedVerifier) UpdateWrite(addr uint64, ct []byte) uint64 {
	//repro:allow benchmark timing decorator; only the traced run installs it, never simulator or campaign code
	t := time.Now()
	stall := v.Verifier.UpdateWrite(addr, ct)
	v.sp.update.add(t)
	return stall
}

// timedSource times a reference stream.
type timedSource struct {
	trace.RefSource
	sp *spans
}

func (s *timedSource) Next() (trace.Ref, bool) {
	//repro:allow benchmark timing decorator; only the traced run installs it, never simulator or campaign code
	t := time.Now()
	ref, ok := s.RefSource.Next()
	s.sp.next.add(t)
	return ref, ok
}

// clockCost is the host time a span records around an empty call: the
// bias every in-situ ns/call carries, subtracted from each.
func clockCost(iters int) float64 {
	var samples []float64
	for r := 0; r < 5; r++ {
		var s span
		for i := 0; i < iters; i++ {
			s.add(time.Now())
		}
		samples = append(samples, float64(s.ns)/float64(s.n))
	}
	return median(samples)
}

// runLadder is the traced run: every layer of the ladder, measured the
// same way whichever workload is named, plus the tracing overhead on
// that workload.
func runLadder(b *bench, workload string) {
	clock := clockCost(b.count(20_000, 1000))
	b.put("bench.clock_ns", clock)
	cryptoLadder(b)
	for _, w := range sims {
		w.ladder(b, clock, w.name == workload)
	}
	surveyLadder(b, workload == "survey")
	plan := sweepPlan(b.seed, b.count(ladderSubmitsPerSecond, 4), b.sz.sweepRefs)
	campaignLadder(b, plan)
	serveLadder(b, plan, workload == "sweepd")
}

// cryptoCases names the standalone cipher ladder's metrics.
var cryptoCases = []string{
	"crypto.aes_encrypt_ns", "crypto.aes_decrypt_ns",
	"crypto.des_encrypt_ns", "crypto.tdes_encrypt_ns",
	"crypto.cbc_line_encrypt_ns", "crypto.cbc_line_decrypt_ns",
	"crypto.ctr_line_ns", "crypto.ghash_tagline_ns", "crypto.hmac_line_ns",
}

// cryptoLadder times each cipher primitive alone, keyed as the engines
// key it, on one block or one 32-byte line: the median over batches of
// the mean per call. Each call's output is the next call's input, so the
// data, and the ciphers' data-dependent branches, vary as in a run.
func cryptoLadder(b *bench) {
	a, err1 := aes.New([]byte("0123456789abcdef"))
	single, err2 := des.New([]byte("on-chip!"))
	triple, err3 := des.NewTriple([]byte("0123456789abcdef01234567"))
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			b.op(fmt.Errorf("crypto ladder: %w", err))
			return
		}
	}
	cbc := modes.NewBlockCBC(a, modes.IVCounter, 0xae915)
	ctr := modes.NewCTR(a, 0xae915)
	gk := ghash.NewKey([]byte("ghash-tag-key-01"))
	var mac keyedhash.MAC
	mac.Init([]byte("mac-key"))
	src, dst := make([]byte, 32), make([]byte, 32)
	rand.New(rand.NewSource(b.seed)).Read(src)
	chain := func(f func(i int, dst, src []byte)) func(int) {
		return func(i int) {
			f(i, dst, src)
			src, dst = dst, src
		}
	}
	// The CBC counters are per line address: cycle a fixed set so the
	// counter map stops growing after the first lap.
	addr := func(i int) uint64 { return uint64(i%1024) * 32 }
	fns := map[string]func(int){
		"crypto.aes_encrypt_ns":      chain(func(_ int, d, s []byte) { a.Encrypt(d[:16], s[:16]) }),
		"crypto.aes_decrypt_ns":      chain(func(_ int, d, s []byte) { a.Decrypt(d[:16], s[:16]) }),
		"crypto.des_encrypt_ns":      chain(func(_ int, d, s []byte) { single.Encrypt(d[:8], s[:8]) }),
		"crypto.tdes_encrypt_ns":     chain(func(_ int, d, s []byte) { triple.Encrypt(d[:8], s[:8]) }),
		"crypto.cbc_line_encrypt_ns": chain(func(i int, d, s []byte) { cbc.EncryptBlockAt(addr(i), d, s) }),
		"crypto.cbc_line_decrypt_ns": chain(func(i int, d, s []byte) { cbc.DecryptBlockAt(addr(i), d, s) }),
		"crypto.ctr_line_ns":         chain(func(i int, d, s []byte) { ctr.XOR(d, s, uint64(i)) }),
		"crypto.ghash_tagline_ns": chain(func(i int, d, s []byte) {
			tag := gk.TagLine(addr(i), uint64(i), s)
			copy(d, s)
			copy(d, tag[:])
		}),
		"crypto.hmac_line_ns": chain(func(_ int, d, s []byte) {
			mac.Reset()
			mac.Write(s)
			sum := mac.SumFixed()
			copy(d, sum[:])
		}),
	}
	batch := time.Duration(b.seconds * float64(time.Millisecond))
	for _, name := range cryptoCases {
		b.put(name, perCall(fns[name], batch))
	}
}

// perCall times fn in batches of about batch length and returns the
// median over five batches of the mean ns per call.
func perCall(fn func(i int), batch time.Duration) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if time.Since(t) >= batch/4 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	n *= 4
	var samples []float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		samples = append(samples, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// ladder measures one simulator workload's layers. Untraced and traced
// ops alternate, each checked against the pinned output, so host drift
// reaches both alike. Every layer figure comes from the fastest traced
// op: its spans give ns per call net of the clock cost, its Report the
// calls per reference, and its wall net of the clock cost the ns per
// reference they are a share of. The fastest untraced op is the
// measured ns per reference the model is checked against.
func (w simWorkload) ladder(b *bench, clock float64, own bool) {
	refs := b.sz.simRefs[w.name]
	w.pinCheck(b, refs)
	pages := w.footprint(b.seed, refs)
	var plain, bare []float64
	var best spans
	var rep soc.Report
	bestNS := math.Inf(1)
	for i := 0; i < ladderReps; i++ {
		ns, _ := w.ladderOp(b, refs, pages, w.observed, nil)
		plain = append(plain, ns)
		if w.observed {
			ns, _ := w.ladderOp(b, refs, pages, false, nil)
			bare = append(bare, ns)
		}
		var sp spans
		if ns, r := w.ladderOp(b, refs, pages, w.observed, &sp); ns < bestNS {
			best, bestNS, rep = sp, ns, r
		}
	}
	perRef := func(s span) float64 { return float64(s.n) / float64(refs) }
	nsPerRef := func(s span) float64 { return perRef(s) * s.perCall(clock) }
	calls := best.enc.n + best.dec.n + best.verify.n + best.update.n + best.next.n
	tracedNS := bestNS - clock*float64(calls)/float64(refs)
	measured := slices.Min(plain)
	p := w.name + "."

	eduNS := nsPerRef(best.enc) + nsPerRef(best.dec)
	if w.engine != "" {
		b.put(p+"edu.encrypt_line_ns", best.enc.perCall(clock))
		b.put(p+"edu.decrypt_line_ns", best.dec.perCall(clock))
		b.put(p+"edu.lines_per_ref", perRef(best.enc)+perRef(best.dec))
		b.put(p+"edu.share", eduNS/tracedNS)
	}
	authNS := nsPerRef(best.verify) + nsPerRef(best.update)
	if w.auth != "" {
		b.put(p+"authtree.verify_read_ns", best.verify.perCall(clock))
		b.put(p+"authtree.update_write_ns", best.update.perCall(clock))
		b.put(p+"authtree.reads_per_ref", perRef(best.verify))
		b.put(p+"authtree.writes_per_ref", perRef(best.update))
		b.put(p+"authtree.share", authNS/tracedNS)
	}
	traceNS := nsPerRef(best.next)
	b.put(p+"trace.next_ns", best.next.perCall(clock))
	b.put(p+"trace.share", traceNS/tracedNS)

	accessNS, events, err := w.replayCache(b.seed, refs)
	b.op(err)
	b.put(p+"cache.access_ns", accessNS)
	b.put(p+"cache.events_per_ref", events)
	b.put(p+"cache.l1_miss_ratio", rep.Cache.MissRate())
	if w.l2 > 0 {
		b.put(p+"cache.l2_hit_ratio", 1-rep.L2.MissRate())
	}
	b.put(p+"soc.self_ns_per_ref", tracedNS-eduNS-authNS-traceNS)
	b.put(p+"soc.model_gap", (measured-(eduNS+authNS+traceNS+accessNS))/measured)
	if w.observed {
		b.put(p+"obs.tax_ns_per_ref", measured-slices.Min(bare))
	}
	if own {
		b.put("bench.trace_overhead", bestNS/measured-1)
	}
}

// ladderOp runs one checked op and returns its ns per reference and its
// Report. A traced op must also have called the engine once per line
// the Report counts.
func (w simWorkload) ladderOp(b *bench, refs int, pages []uint64, observed bool, sp *spans) (float64, soc.Report) {
	r, err := w.op(b.seed, refs, pages, observed, sp)
	if err == nil {
		err = w.check(b, refs, r)
	}
	if err == nil && sp != nil && uint64(sp.enc.n+sp.dec.n) != r.rep.EngineLines {
		err = fmt.Errorf("%s: %d engine line calls, Report counts %d", w.name, sp.enc.n+sp.dec.n, r.rep.EngineLines)
	}
	b.op(err)
	return float64(r.wall.Nanoseconds()) / float64(refs), r.rep
}

// replayCache replays the workload's reference stream through a
// standalone hierarchy of the same geometry: the ns per Access of the
// fastest of ladderReps replays, and the line transfers per reference.
func (w simWorkload) replayCache(seed int64, refs int) (nsPerAccess, eventsPerRef float64, err error) {
	cfg, err := w.system(false)
	if err != nil {
		return 0, 0, err
	}
	stream := trace.Drain(w.source(seed, refs)).Refs
	var samples []float64
	var events int
	for r := 0; r < ladderReps; r++ {
		levels := []*cache.Cache{}
		for _, lc := range []cache.Config{cfg.Cache, cfg.L2} {
			if lc.Size == 0 {
				continue
			}
			c, err := cache.New(lc)
			if err != nil {
				return 0, 0, err
			}
			levels = append(levels, c)
		}
		h, err := cache.NewHierarchy(levels...)
		if err != nil {
			return 0, 0, err
		}
		events = 0
		t := time.Now()
		for _, ref := range stream {
			_, evs := h.Access(ref.Addr, ref.Kind == trace.Store)
			events += len(evs)
		}
		samples = append(samples, float64(time.Since(t).Nanoseconds())/float64(len(stream)))
	}
	return slices.Min(samples), float64(events) / float64(len(stream)), nil
}

// surveyLadder runs one suite pass on a 2-worker pool like the campaign
// pool's, timing each experiment; the workers' busy share of the pass
// is the pool efficiency. On the survey workload, an untraced pass
// gives the tracing overhead.
func surveyLadder(b *bench, own bool) {
	exps := experiments(b.sz.surveyIDs)
	secs := make([]float64, len(exps))
	tables := make([]*core.Table, len(exps))
	errs := make([]error, len(exps))
	runtime.GC()
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(exps); i = int(next.Add(1)) - 1 {
				t := time.Now()
				tables[i], errs[i] = exps[i].Run(b.sz.surveyRefs)
				secs[i] = time.Since(t).Seconds()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	err := firstErr(errs)
	if err == nil {
		err = b.same("survey", tablesDigest(tables))
	}
	b.op(err)
	busy := 0.0
	for i, e := range exps {
		b.put("core."+e.ID+"_s", secs[i])
		busy += secs[i]
	}
	b.put("campaign.pool_efficiency", busy/(2*wall.Seconds()))
	if own {
		runtime.GC()
		t := time.Now()
		tables, err := campaign.RunSuite(b.sz.surveyIDs, b.sz.surveyRefs, 2)
		untraced := time.Since(t)
		if err == nil {
			err = b.same("survey", tablesDigest(tables))
		}
		b.op(err)
		b.put("bench.trace_overhead", wall.Seconds()/untraced.Seconds()-1)
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// campaignLadder replays the sweepd plan's specs serially through the
// CLI's runner on one store, timing every Exec, and keeps each spec's
// CSV as the serve session's oracle.
func campaignLadder(b *bench, plan [clients][]sweepOp) {
	store := campaign.NewStore()
	var fresh, hit []float64
	for _, spec := range submitOrder(plan) {
		csv, err := replay(spec, store, func(d time.Duration, isFresh bool) {
			if isFresh {
				fresh = append(fresh, ms(d))
			} else {
				hit = append(hit, float64(d.Nanoseconds())/1e3)
			}
		})
		b.op(err)
		b.oracle[specKey(spec)] = csv
	}
	b.put("campaign.exec_fresh_ms", median(fresh))
	b.put("campaign.exec_hit_us", median(hit))
	b.put("campaign.memo_hit_ratio", ratio(store.ResultHits(), store.ResultRuns()))
	b.put("campaign.baseline_hit_ratio", ratio(store.BaselineHits(), store.BaselineRuns()))
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// serveLadder runs the plan as a sweepd session timed by phase, checks
// every CSV, and reads the server's retained state afterwards. On the
// sweepd workload, an untraced session on a fresh server gives the
// tracing overhead.
func serveLadder(b *bench, plan [clients][]sweepOp, own bool) {
	srv, err := startServer()
	if err != nil {
		b.op(fmt.Errorf("sweepd set-up: %w", err))
		return
	}
	sess := &session{}
	srv.run(sess, plan, time.Time{}, true)
	b.verify(sess)
	names := []string{"serve.post_ms", "serve.stream_ms", "serve.report_ms", "serve.refetch_ms"}
	for i, name := range names {
		b.put(name, median(sess.phaseMS[i]))
	}
	list, err := srv.do(http.MethodGet, "/sweeps", nil)
	var retained []map[string]any
	if err == nil {
		err = json.Unmarshal(list, &retained)
	}
	b.op(err)
	b.put("serve.sweeps_retained", float64(len(retained)))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.put("serve.heap_mb", float64(mem.HeapInuse)/(1<<20))
	srv.close()
	if own {
		srv, err := startServer()
		if err != nil {
			b.op(fmt.Errorf("sweepd set-up: %w", err))
			return
		}
		untraced := &session{}
		srv.run(untraced, plan, time.Time{}, false)
		srv.close()
		b.verify(untraced)
		b.put("bench.trace_overhead", sess.wall.Seconds()/untraced.wall.Seconds()-1)
	}
}
