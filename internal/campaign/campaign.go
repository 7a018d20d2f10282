//repro:deterministic
package campaign

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/edu"
	"repro/internal/obs/rec"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// Result is one completed task: the grid point plus everything the
// emitters report about it. Failed points carry Err and zero metrics —
// a bad (engine, geometry) pairing fails that cell, not the sweep.
type Result struct {
	TaskConfig
	EngineName   string  `json:"engine_name"`
	Gates        int     `json:"gates"`
	BaseCycles   uint64  `json:"base_cycles"`
	Cycles       uint64  `json:"cycles"`
	Overhead     float64 `json:"overhead"`
	EngineStalls uint64  `json:"engine_stalls"`
	// EngineLines counts line transfers that crossed the EDU boundary
	// (soc.Report.EngineLines): the unit's exposed bandwidth, the
	// quantity the placement axis trades against (an L2 filters the
	// miss traffic an outer EDU must transform).
	EngineLines uint64 `json:"engine_lines"`
	RMWEvents   uint64 `json:"rmw_events"`
	// AuthGates is the authenticator's on-chip area (0 for auth=none);
	// AuthStalls its share of the stall cycles.
	AuthGates  int    `json:"auth_gates,omitempty"`
	AuthStalls uint64 `json:"auth_stalls,omitempty"`
	// Violations counts fail-stop events during the run — every failed
	// verification, so an unrepaired line re-counts on each refill (see
	// soc.Report.AuthViolations). Under an attack schedule,
	// Injected/Detected/DetectionRate/MeanDetectLatency describe the
	// adversary's campaign in distinct tampers (latency in references
	// from injection to the first fail-stop event at that line).
	Violations        uint64  `json:"violations,omitempty"`
	Injected          uint64  `json:"injected,omitempty"`
	Detected          uint64  `json:"detected,omitempty"`
	DetectionRate     float64 `json:"detection_rate,omitempty"`
	MeanDetectLatency float64 `json:"mean_detect_latency,omitempty"`
	Err               string  `json:"err,omitempty"`
	// Trace is the task's sealed flight-recorder stream when the runner
	// had a Tracer installed (nil otherwise). Excluded from the JSON
	// report — report bytes must not depend on whether tracing was on;
	// TraceOf serializes it separately.
	Trace *rec.Stream `json:"-"`
}

// Report is a finished campaign: results in expansion order plus the
// ranked per-engine summary. It deliberately carries no timing or
// worker-count fields — emitted bytes must be identical for any -jobs.
type Report struct {
	Spec    Spec         `json:"spec"`
	Results []Result     `json:"results"`
	Summary []SummaryRow `json:"summary"`
}

// Runner executes a campaign. Its backing Store persists across Run
// calls — and, when shared via NewRunnerWith, across Runners — so
// re-running an overlapping grid resimulates nothing.
type Runner struct {
	spec  Spec
	store *Store
	// m is the optional live metrics bundle (Observe); nil publishes
	// nowhere and costs nothing on the simulation path.
	m *Metrics
	// tr is the optional flight-recorder hub (Trace); nil records
	// nothing — the simulator sees a nil recorder, a no-op sink.
	tr *Tracer
	// onResult is the optional incremental delivery hook (OnResult).
	onResult func(Task, Result)
}

// NewRunner validates the spec and prepares a runner with a private
// store — the one-shot CLI shape.
func NewRunner(spec Spec) (*Runner, error) {
	return NewRunnerWith(spec, NewStore())
}

// NewRunnerWith validates the spec and prepares a runner backed by the
// given shared store (nil gets a private one). Every Runner handed the
// same Store shares baselines and completed results: this is how the
// sweep service lets concurrent users' overlapping grids reuse each
// other's work.
func NewRunnerWith(spec Spec, store *Store) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		store = NewStore()
	}
	return &Runner{spec: spec, store: store}, nil
}

// Spec returns the validated, default-filled grid spec the runner
// executes — the exact Spec a Report built from this runner carries.
func (r *Runner) Spec() Spec { return r.spec }

// OnResult installs an incremental delivery hook: fn is called once for
// every task Exec finishes (simulated or memo-served), from the worker
// goroutine that finished it, in completion order — NOT expansion
// order. Callers needing the canonical order re-sequence by Task.Index,
// as the serve package's NDJSON stream does. Install before Run; fn
// must be safe for concurrent calls and must not block long (it holds
// a worker).
func (r *Runner) OnResult(fn func(Task, Result)) { r.onResult = fn }

// Plan expands the grid and, when a metrics bundle is installed,
// publishes the campaign denominators (tasks_total, refs_planned).
// RunOn calls it implicitly; a caller that schedules tasks itself calls
// it once and then Exec each task.
func (r *Runner) Plan() []Task {
	tasks := r.spec.Expand()
	if r.m != nil {
		r.m.TasksTotal.Set(int64(len(tasks)))
		r.m.RefsPlanned.Set(int64(plannedRefs(tasks)))
	}
	return tasks
}

// Exec executes one expanded task: the shared-store lookup, the
// simulation on miss, the metrics bookkeeping, and the delivery hook.
// It is the unit of work RunOn submits to a Pool.
func (r *Runner) Exec(t Task) Result {
	if r.m != nil {
		r.m.TasksStarted.Inc()
		r.m.WorkersBusy.Add(1)
	}
	ran := false
	res, _ := r.store.results.get(t.Cfg.Key(), func() (Result, error) {
		ran = true
		return r.runTask(t.Cfg), nil
	})
	if r.m != nil {
		r.m.WorkersBusy.Add(-1)
		r.m.TasksDone.Inc()
		if !ran {
			r.m.MemoHits.Inc()
		}
		if res.Err != "" {
			r.m.TaskErrors.Inc()
		}
		r.m.BaselineRuns.Set(r.store.BaselineRuns())
		r.m.BaselineHits.Set(r.store.BaselineHits())
	}
	if r.onResult != nil {
		r.onResult(t, res)
	}
	return res
}

// Run expands the grid and executes every task on `jobs` workers
// (jobs <= 0 means one per CPU). The returned report is independent of
// jobs: tasks are seeded from config hashes and slotted by index.
func (r *Runner) Run(jobs int) *Report {
	rep, _ := r.RunContext(context.Background(), jobs)
	return rep
}

// CanceledErr is the Err string recorded on grid points whose tasks
// never ran because the sweep was cancelled.
const CanceledErr = "canceled: sweep stopped before this point ran"

// Canceled is the placeholder Result for a grid point skipped by
// cancellation: the config, no metrics, CanceledErr.
func Canceled(cfg TaskConfig) Result {
	return Result{TaskConfig: cfg, Err: CanceledErr}
}

// RunContext is Run with cooperative cancellation: RunOn on a private
// pool of `jobs` workers.
func (r *Runner) RunContext(ctx context.Context, jobs int) (*Report, error) {
	p := NewPool(jobs)
	defer p.Close()
	return r.RunOn(ctx, p)
}

// RunOn is the one loop that runs a sweep: it expands the grid, submits
// every task to p in expansion order, slots each result by its index
// and builds the canonical report. Many sweeps may share one pool.
// Cancellation is task-granular: in-flight simulations finish (a task
// is never left half-run, so the shared store only ever holds complete
// values), no new tasks start, and the error is ctx.Err(). The returned
// report then holds partial state in canonical order — every completed
// point plus a Canceled placeholder in each slot whose task never ran.
func (r *Runner) RunOn(ctx context.Context, p *Pool) (*Report, error) {
	tasks := r.Plan()
	out := make([]Result, len(tasks))
	done := make([]bool, len(tasks))
	p.each(ctx, len(tasks), func(i int) {
		out[i] = r.Exec(tasks[i])
		done[i] = true
	})
	err := ctx.Err()
	if err != nil {
		for i := range out {
			if !done[i] {
				out[i] = Canceled(tasks[i].Cfg)
			}
		}
	}
	return &Report{Spec: r.spec, Results: out, Summary: Summarize(out)}, err
}

// socConfig builds the system geometry for a grid point, starting from
// the experiments' reference system. The returned config carries the
// task's EDU placement; baseline runs drop it with soc.Config.Baseline
// (a plaintext system has no EDU boundary).
func socConfig(cfg TaskConfig) (soc.Config, error) {
	sc := soc.DefaultConfig()
	sc.Cache.Size = cfg.CacheSize
	sc.Cache.LineSize = cfg.LineSize
	sc.Bus.WidthBytes = cfg.BusWidth
	if cfg.L2Size > 0 {
		sc.L2 = soc.DefaultL2Config(cfg.L2Size)
		sc.L2.LineSize = cfg.LineSize
	}
	p, err := edu.ParsePlacement(cfg.Placement)
	if err != nil {
		return soc.Config{}, err
	}
	sc.Placement = p
	return sc, nil
}

// runTask measures one grid point, bracketing the simulation with
// lifecycle records when a Tracer is installed. The baseline simulation
// is never recorded live (its owning task is scheduling-dependent);
// the memoized base cycle count is synthesized into a KindBaseline
// record instead, keeping every stream a pure function of its task.
func (r *Runner) runTask(cfg TaskConfig) Result {
	if r.tr == nil {
		return r.runTaskRec(cfg, nil)
	}
	rc := rec.New(r.tr.capacity())
	rc.Emit(rec.KindTaskStart, 0, 0, 0, uint64(cfg.Refs))
	res := r.runTaskRec(cfg, rc)
	if res.Err == "" {
		rc.Stamp(res.Cycles, uint64(cfg.Refs))
		rc.Emit(rec.KindBaseline, 0, 0, 0, res.BaseCycles)
		rc.Emit(rec.KindTaskEnd, 0, 0, 0, res.Cycles)
	} else {
		rc.Emit(rec.KindTaskEnd, 0, 0, rec.FlagFail, 0)
	}
	st := rc.Seal(cfg.Key())
	res.Trace = &st
	r.tr.add(st)
	return res
}

// runTaskRec measures one grid point: generate the point's trace from
// its hash-derived seed, fetch (or compute once) the shared plaintext
// baseline, then simulate the engine system on an identical trace,
// recording into rc (nil = untraced).
func (r *Runner) runTaskRec(cfg TaskConfig, rc *rec.Recorder) Result {
	res := Result{TaskConfig: cfg}
	fail := func(err error) Result {
		res.Err = err.Error()
		return res
	}
	entry, err := core.Entry(cfg.Engine)
	if err != nil {
		return fail(err)
	}
	res.EngineName = entry.Name
	if _, ok := trace.Sources[cfg.Workload]; !ok {
		return fail(fmt.Errorf("campaign: unknown workload %q", cfg.Workload))
	}
	sc, err := socConfig(cfg)
	if err != nil {
		return fail(err)
	}

	// The baseline is protection-independent: memoized under the
	// (point, hierarchy) key, so the first task there simulates it and
	// every other engine/auth/placement combination reuses the report.
	base, err := r.store.baselines.get(cfg.BaselineKey(), func() (soc.Report, error) {
		bcfg := sc.Baseline()
		if r.m != nil {
			bcfg.Metrics = r.m.SoC
		}
		s, err := soc.New(bcfg)
		if err != nil {
			return soc.Report{}, err
		}
		return s.Run(core.ProfileSource(cfg.Workload, cfg.Refs, cfg.Seed())), nil
	})
	if err != nil {
		return fail(err)
	}

	eng, err := entry.Build()
	if err != nil {
		return fail(err)
	}
	ecfg := sc
	ecfg.Engine = eng
	ver, err := core.BuildAuthenticator(cfg.Auth, cfg.LineSize)
	if err != nil {
		return fail(err)
	}
	ecfg.Verifier = ver
	ecfg.Recorder = rc
	if r.m != nil {
		ecfg.Metrics = r.m.SoC
		if t, ok := ver.(*authtree.Tree); ok {
			t.SetMetrics(r.m.Auth)
		}
	}
	if t, ok := ver.(*authtree.Tree); ok {
		t.SetRecorder(rc)
	}
	var sched *attack.Schedule
	if cfg.AttackRate > 0 {
		// The adversary's seed derives from the protection-independent
		// point key (plus a domain constant), so every engine and
		// authenticator at a grid point faces the same strike plan —
		// and a -jobs 8 sweep stays byte-identical to -jobs 1.
		sched = attack.NewSchedule(attack.ScheduleConfig{
			Seed:      int64(hashString("attack "+cfg.PointKey()) & (1<<63 - 1)),
			PerTenK:   cfg.AttackRate,
			LineBytes: cfg.LineSize,
		})
		sched.SetRecorder(rc)
		ecfg.Intruder = sched
	}
	s, err := soc.New(ecfg)
	if err != nil {
		return fail(err)
	}
	// Each task rebuilds the point's reference stream from the same
	// derived seed rather than sharing one across goroutines: the
	// stream generates references on demand (no materialized slice), so
	// a task's memory is bounded by the simulated working set however
	// long the trace, and tasks stay fully independent.
	with := s.Run(core.ProfileSource(cfg.Workload, cfg.Refs, cfg.Seed()))

	res.Gates = eng.Gates()
	res.BaseCycles = base.Cycles
	res.Cycles = with.Cycles
	res.Overhead = with.OverheadVs(base)
	res.EngineStalls = with.EngineStalls
	res.EngineLines = with.EngineLines
	res.RMWEvents = with.RMWEvents
	if ver != nil {
		res.AuthGates = ver.Gates()
		res.AuthStalls = with.AuthStalls
		res.Violations = with.AuthViolations
	}
	if sched != nil {
		res.Injected = sched.Injected
		res.Detected = sched.Detected
		res.DetectionRate = sched.DetectionRate()
		res.MeanDetectLatency = sched.MeanLatency()
	}
	return res
}

// Sweep is the one-call convenience wrapper: validate, run, report.
func Sweep(spec Spec, jobs int) (*Report, error) {
	r, err := NewRunner(spec)
	if err != nil {
		return nil, err
	}
	return r.Run(jobs), nil
}
