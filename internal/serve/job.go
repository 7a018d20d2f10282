package serve

import (
	"context"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Sweep states, as reported by Status.State. A sweep moves
// queued → running → done, or to canceled from either live state
// (DELETE, or server shutdown). There is no failed state: a bad spec
// is rejected at admission, and a bad grid cell fails that cell's row,
// never the sweep.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// Status is the wire form of a sweep's progress — GET /sweeps/{id}.
// While the sweep runs, the counters come from its private obs
// registry (the campaign gauges), so progress reporting rides the same
// metrics inventory the CLI's -progress flag does. A finished sweep
// answers with its final sample, frozen.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Tasks is the grid size; Rows the results already available on the
	// incremental stream (the canonical-order prefix length).
	Tasks int `json:"tasks"`
	Rows  int `json:"rows"`
	// TasksDone counts finished tasks (memo-served included);
	// TaskErrors the failed grid cells among them.
	TasksDone  uint64 `json:"tasks_done"`
	TaskErrors uint64 `json:"task_errors"`
	// MemoHits counts this sweep's tasks served from the shared store —
	// work some earlier (or concurrent) sweep already paid for.
	MemoHits uint64 `json:"memo_hits"`
	// RefsPlanned/RefsDone are the simulated-reference denominator and
	// progress. Planned assumes cold baselines; a warm store finishes
	// below plan, which is the sharing win, not a stall.
	RefsPlanned int64  `json:"refs_planned"`
	RefsDone    uint64 `json:"refs_done"`
	Err         string `json:"err,omitempty"`
}

// sweepJob is one admitted sweep: its runner (sharing the server
// store), its private metrics registry, the canonical-order result
// re-sequencer the NDJSON stream reads, and the final report. The
// runner, registry and done flags serve only the run: finalize drops
// them, and a finished sweep keeps its report and the final Status
// sample.
type sweepJob struct {
	id     string
	spec   campaign.Spec
	runner *campaign.Runner
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state string
	reg   *obs.Registry
	out   []campaign.Result
	done  []bool
	// avail is the length of the contiguous completed prefix of out:
	// results are recorded in completion order but released to readers
	// strictly in expansion order, so the stream every subscriber sees
	// is the canonical one regardless of worker scheduling.
	avail  int
	notify chan struct{}
	report *campaign.Report
	// final is the Status sample finalize took; status serves it once
	// report is set.
	final Status
	err   error
}

func newSweepJob(id string, runner *campaign.Runner, reg *obs.Registry) *sweepJob {
	ctx, cancel := context.WithCancel(context.Background())
	return &sweepJob{
		id:     id,
		spec:   runner.Spec(),
		runner: runner,
		reg:    reg,
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		notify: make(chan struct{}),
	}
}

// broadcast wakes every waiter; callers hold j.mu.
func (j *sweepJob) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// begin sizes the re-sequencer for the grid and moves the job to
// running.
func (j *sweepJob) begin() {
	n := j.spec.Size()
	j.mu.Lock()
	j.state = StateRunning
	j.out = make([]campaign.Result, n)
	j.done = make([]bool, n)
	j.broadcast()
	j.mu.Unlock()
}

// record is the runner's OnResult hook: slot the result by expansion
// index and advance the released prefix. Safe for concurrent workers.
func (j *sweepJob) record(t campaign.Task, res campaign.Result) {
	j.mu.Lock()
	if t.Index < len(j.out) && !j.done[t.Index] {
		j.out[t.Index] = res
		j.done[t.Index] = true
		for j.avail < len(j.out) && j.done[j.avail] {
			j.avail++
		}
	}
	j.broadcast()
	j.mu.Unlock()
}

// finalize installs the report RunOn returned and settles the terminal
// state. The report's results become the stream's rows: the released
// prefix is unchanged (the same results, in the same slots) and the
// Canceled placeholders of a stopped sweep stream after it.
func (j *sweepJob) finalize(rep *campaign.Report, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.report = rep
	j.out = rep.Results
	j.avail = len(rep.Results)
	if err != nil {
		j.state = StateCanceled
		j.err = err
	} else {
		j.state = StateDone
	}
	j.final = j.sample()
	j.runner, j.reg, j.done = nil, nil, nil
	j.broadcast()
}

// finished reports whether the job reached a terminal state; the
// report is non-nil exactly then.
func (j *sweepJob) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report != nil
}

// status samples the job for GET /sweeps/{id}: the frozen final
// sample once the sweep is terminal, a live one before.
func (j *sweepJob) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.report != nil {
		return j.final
	}
	return j.sample()
}

// sample reads the job's state and its live registry; callers hold
// j.mu.
func (j *sweepJob) sample() Status {
	var errStr string
	if j.err != nil {
		errStr = j.err.Error()
	}
	return Status{
		ID:          j.id,
		State:       j.state,
		Tasks:       j.spec.Size(),
		Rows:        j.avail,
		TasksDone:   j.reg.Counter("campaign.tasks_done").Load(),
		TaskErrors:  j.reg.Counter("campaign.task_errors").Load(),
		MemoHits:    j.reg.Counter("campaign.memo_hits").Load(),
		RefsPlanned: j.reg.Gauge("campaign.refs_planned").Load(),
		RefsDone:    j.reg.Counter("soc.refs").Load(),
		Err:         errStr,
	}
}
