// Package serve is the sweep service: the long-lived campaign fabric
// behind cmd/sweepd. It accepts grid specs over HTTP, validates and
// expands them, and enqueues them on a bounded admission queue. Each
// admitted sweep runs through campaign.Runner.RunOn — the loop the
// sweep CLI runs — on one shared campaign.Pool; results stream
// incrementally as NDJSON in canonical expansion order, and the final
// report is byte-identical to what the sweep CLI emits for the same
// spec. Every sweep shares one campaign.Store, so overlapping grids
// from concurrent users reuse each other's baselines and completed
// points instead of recomputing them — the sharing the hash-derived
// per-task seeds were built for.
//
// The fabric lives strictly above soc.Run: nothing here touches the
// simulation hot path, and a grid point's bytes are the same whether
// it ran here, in the CLI, or in a test.
//
// Endpoints (see DESIGN.md §11):
//
//	POST   /sweeps                   submit a campaign.Spec (JSON) → 202 + Status
//	GET    /sweeps                   list all sweeps (newest last)
//	GET    /sweeps/{id}              status/progress snapshot
//	GET    /sweeps/{id}/results      NDJSON result rows, canonical order, streamed live
//	GET    /sweeps/{id}/result       final report; ?format=table|csv|json
//	DELETE /sweeps/{id}              cancel (task-granular, partial report kept)
//	GET    /metrics                  server + shared-store obs snapshot
//	GET    /trace                    live flight-recorder snapshot (Perfetto JSON)
//	GET    /healthz                  liveness
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net/http"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// Config sizes the fabric. The zero value serves with defaults.
type Config struct {
	// Store is the shared cross-request memo; nil creates a private one.
	Store *campaign.Store
	// Workers is the shared simulation pool size; every admitted sweep's
	// tasks run on this one pool (default campaign.DefaultJobs()).
	Workers int
	// QueueDepth bounds the admission queue — sweeps admitted but not
	// yet executing. POST /sweeps answers 429 when it is full: the
	// client backs off, the server never buffers unbounded work.
	// Default 16.
	QueueDepth int
	// MaxActive bounds how many sweeps feed the worker pool
	// concurrently; more than this many admitted sweeps wait in the
	// queue. Default 2: enough that overlapping grids meet in the
	// singleflight store, few enough that one giant sweep cannot be
	// starved by a stream of small ones taking every worker.
	MaxActive int
	// MaxTasks rejects specs expanding beyond this many grid points
	// with 413 — admission control against a combinatorial typo.
	// Default 65536.
	MaxTasks int
	// TraceCap, when > 0, arms per-sweep flight recording with this
	// per-task ring capacity (events). Recording retains every task's
	// sealed stream in memory for the life of the sweep, so this is a
	// debugging knob, not a production default.
	TraceCap int
	// SnapshotPath, when set, is the shared store's checkpoint file:
	// loaded at Start (a missing file is a cold start), rewritten after
	// every completed sweep and at Close. A restarted server replays
	// only work no prior sweep finished.
	SnapshotPath string
}

// Server is the campaign fabric. Construct with New, wire Handler into
// an http.Server, call Start to begin executing, Close to drain.
type Server struct {
	cfg   Config
	store *campaign.Store
	reg   *obs.Registry
	mux   *http.ServeMux

	queue  chan *sweepJob
	pool   *campaign.Pool
	dispWG sync.WaitGroup

	mu     sync.Mutex
	sweeps map[string]*sweepJob
	order  []string
	seq    int
	closed bool
	// lastTraced is the most recently admitted traced sweep; /trace
	// serves its live snapshot.
	lastTraced *campaign.Tracer

	admitted  *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	canceled  *obs.Counter
	queueLen  *obs.Gauge
	active    *obs.Gauge
	snapMu    sync.Mutex
}

// New builds a server (not yet executing; call Start).
func New(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store = campaign.NewStore()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = campaign.DefaultJobs()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	if cfg.MaxTasks <= 0 {
		cfg.MaxTasks = 65536
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		store:     cfg.Store,
		reg:       reg,
		queue:     make(chan *sweepJob, cfg.QueueDepth),
		sweeps:    make(map[string]*sweepJob),
		admitted:  reg.Counter("serve.sweeps_admitted"),
		rejected:  reg.Counter("serve.sweeps_rejected"),
		completed: reg.Counter("serve.sweeps_completed"),
		canceled:  reg.Counter("serve.sweeps_canceled"),
		queueLen:  reg.Gauge("serve.queue_depth"),
		active:    reg.Gauge("serve.sweeps_active"),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /sweeps", s.handleCreate)
	s.mux.HandleFunc("POST /sweeps/{$}", s.handleCreate)
	s.mux.HandleFunc("GET /sweeps", s.handleList)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /sweeps/{id}/results", s.handleStream)
	s.mux.HandleFunc("GET /sweeps/{id}/result", s.handleReport)
	s.mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler is the service's HTTP surface. It is live before Start —
// sweeps POSTed early are admitted and wait in the queue.
func (s *Server) Handler() http.Handler { return s.mux }

// Start loads the checkpoint (if configured) and launches the shared
// worker pool and the sweep dispatchers.
func (s *Server) Start() error {
	if s.cfg.SnapshotPath != "" {
		if err := s.store.LoadFile(s.cfg.SnapshotPath); err != nil &&
			!errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("serve: loading store checkpoint: %w", err)
		}
	}
	s.pool = campaign.NewPool(s.cfg.Workers)
	for d := 0; d < s.cfg.MaxActive; d++ {
		s.dispWG.Add(1)
		go s.dispatch()
	}
	return nil
}

// Close stops admission, cancels every live sweep, drains the
// dispatchers and then the pool, and writes a final checkpoint.
// Idempotent, and safe before Start.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	jobs := make([]*sweepJob, 0, len(s.sweeps))
	for _, j := range s.sweeps {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	close(s.queue)
	s.dispWG.Wait()
	if s.pool != nil {
		s.pool.Close()
	}
	if s.cfg.SnapshotPath != "" {
		return s.saveSnapshot()
	}
	return nil
}

func (s *Server) saveSnapshot() error {
	// Serialized: a post-sweep save and the Close save must not
	// interleave their temp-file renames.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.store.SaveFile(s.cfg.SnapshotPath)
}

// dispatch claims admitted sweeps and runs each on the shared worker
// pool. MaxActive of these run.
func (s *Server) dispatch() {
	defer s.dispWG.Done()
	for j := range s.queue {
		s.queueLen.Set(int64(len(s.queue)))
		s.active.Add(1)
		s.runJob(j)
		s.active.Add(-1)
		if s.cfg.SnapshotPath != "" {
			// Checkpoint after every finished sweep; a failed save is
			// not fatal to the service (the next one retries).
			s.saveSnapshot()
		}
	}
}

// runJob runs one sweep through Runner.RunOn on the shared pool. The
// job's record hook streams results as they land; the report RunOn
// returns is the job's canonical final state. The outcome is counted
// before finalize makes the sweep terminal, so /metrics already counts
// a sweep any client sees finished.
func (s *Server) runJob(j *sweepJob) {
	j.begin()
	rep, err := j.runner.RunOn(j.ctx, s.pool)
	if err != nil {
		s.canceled.Inc()
	} else {
		s.completed.Inc()
	}
	j.finalize(rep, err)
}

// newID mints a sweep id: admission sequence number plus a hash of the
// filled spec, so overlapping submissions of one grid are visibly kin
// ("s3-91c2e0f7" and "s7-91c2e0f7") without colliding.
func (s *Server) newID(spec campaign.Spec) string {
	s.seq++
	h := fnv.New64a()
	b, _ := json.Marshal(spec)
	h.Write(b)
	return fmt.Sprintf("s%d-%08x", s.seq, uint32(h.Sum64()))
}

func (s *Server) job(id string) *sweepJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// httpError answers with a JSON error object — every error the fabric
// emits is machine-readable.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleCreate is POST /sweeps: validate, size-check, admit or 429.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	spec, err := campaign.ParseSpecJSON(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n := spec.Size(); n > s.cfg.MaxTasks {
		httpError(w, http.StatusRequestEntityTooLarge,
			"spec expands to %d tasks (limit %d)", n, s.cfg.MaxTasks)
		return
	}
	jreg := obs.NewRegistry()
	runner, err := campaign.NewRunnerWith(spec, s.store)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	runner.Observe(campaign.NewMetrics(jreg))

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	j := newSweepJob(s.newID(spec), runner, jreg)
	runner.OnResult(j.record)
	if s.cfg.TraceCap > 0 {
		tr := &campaign.Tracer{Cap: s.cfg.TraceCap}
		runner.Trace(tr)
		s.lastTraced = tr
	}
	// The 202 answers with the admitted (queued) state: sampled before
	// the send, since a free dispatcher may start the sweep at once.
	st := j.status()
	select {
	case s.queue <- j:
		s.sweeps[j.id] = j
		s.order = append(s.order, j.id)
		s.queueLen.Set(int64(len(s.queue)))
		s.mu.Unlock()
		s.admitted.Inc()
		w.Header().Set("Location", "/sweeps/"+j.id)
		writeJSON(w, http.StatusAccepted, st)
	default:
		s.mu.Unlock()
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"admission queue full (%d sweeps waiting); retry later", s.cfg.QueueDepth)
	}
}

// handleList is GET /sweeps: every sweep's status, admission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*sweepJob, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.sweeps[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleStream is GET /sweeps/{id}/results: NDJSON rows in canonical
// expansion order, from row 0 (late subscribers replay the prefix),
// streamed live until the sweep finishes or the client hangs up.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		j.mu.Lock()
		avail, terminal, ch := j.avail, j.report != nil, j.notify
		// Released rows are immutable once avail covers them, so the
		// slice can be read outside the lock.
		rows := j.out[next:avail]
		j.mu.Unlock()
		for i := range rows {
			if err := enc.Encode(&rows[i]); err != nil {
				return
			}
		}
		next = avail
		if len(rows) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// handleReport is GET /sweeps/{id}/result?format=table|csv|json: the
// final canonical report, byte-identical to the sweep CLI on the same
// spec. 409 while the sweep is still running.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "table"
	}
	valid := false
	for _, f := range campaign.Formats {
		valid = valid || f == format
	}
	if !valid {
		httpError(w, http.StatusBadRequest, "unknown format %q", format)
		return
	}
	if !j.finished() {
		httpError(w, http.StatusConflict,
			"sweep %s is %s; stream /sweeps/%s/results or retry when done",
			j.id, j.status().State, j.id)
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	campaign.Emit(w, j.report, format)
}

// handleCancel is DELETE /sweeps/{id}: task-granular cancellation. The
// in-flight task finishes (the shared store only ever holds complete
// values), queued tasks are skipped, and the partial report stays
// available with Canceled placeholders in the never-run slots.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleMetrics refreshes the shared-store gauges and serves the
// server registry snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	nb, nr := s.store.Len()
	s.reg.Gauge("serve.store_baselines").Set(int64(nb))
	s.reg.Gauge("serve.store_results").Set(int64(nr))
	s.reg.Gauge("serve.store_baseline_runs").Set(s.store.BaselineRuns())
	s.reg.Gauge("serve.store_baseline_hits").Set(s.store.BaselineHits())
	s.reg.Gauge("serve.store_result_runs").Set(s.store.ResultRuns())
	s.reg.Gauge("serve.store_result_hits").Set(s.store.ResultHits())
	s.queueLen.Set(int64(len(s.queue)))
	s.reg.Handler().ServeHTTP(w, r)
}

// handleTrace serves the most recently admitted traced sweep's live
// flight-recorder snapshot (Perfetto-loadable Chrome JSON); an empty
// trace when recording is off (Config.TraceCap == 0).
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	tr := s.lastTraced
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if tr == nil {
		rec.WriteChrome(w, &rec.Trace{})
		return
	}
	rec.WriteChrome(w, tr.Snapshot())
}
