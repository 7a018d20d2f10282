package campaign

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// An observed runner must account every planned reference exactly once
// (tasks plus memoized baselines), drain its workers, and leave the
// emitted report identical to an unobserved run.
func TestRunnerObserve(t *testing.T) {
	spec := Spec{
		Engines:   []string{"aegis", "xom"},
		Workloads: []string{"sequential"},
		Auths:     []string{"ctree"},
		Refs:      []int{2000},
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner.Observe(m)
	rep := runner.Run(2)

	n := int64(len(rep.Results))
	if n == 0 {
		t.Fatal("empty report")
	}
	for _, res := range rep.Results {
		if res.Err != "" {
			t.Fatalf("task failed: %s", res.Err)
		}
	}
	if got := reg.Gauge("campaign.tasks_total").Load(); got != n {
		t.Errorf("tasks_total = %d, want %d", got, n)
	}
	if got := reg.Counter("campaign.tasks_done").Load(); got != uint64(n) {
		t.Errorf("tasks_done = %d, want %d", got, n)
	}
	if got := reg.Counter("campaign.task_errors").Load(); got != 0 {
		t.Errorf("task_errors = %d, want 0", got)
	}
	if got := reg.Gauge("campaign.workers_busy").Load(); got != 0 {
		t.Errorf("workers_busy = %d after Run, want 0", got)
	}
	if got := reg.Gauge("campaign.baseline_runs").Load(); got != runner.store.BaselineRuns() {
		t.Errorf("baseline_runs = %d, want %d", got, runner.store.BaselineRuns())
	}

	// Every planned reference simulated exactly once: each task's trace
	// plus one trace per unique baseline.
	planned := uint64(reg.Gauge("campaign.refs_planned").Load())
	if got := reg.Counter("soc.refs").Load(); got != planned {
		t.Errorf("soc.refs = %d, want planned %d", got, planned)
	}
	// The ctree tasks exercised the tree authenticator's live counters.
	if reg.Counter("authtree.verified").Load() == 0 {
		t.Error("authtree.verified did not move under auth=ctree")
	}

	// Re-running the same grid is served from the result memo: no new
	// simulation work, one memo hit per task.
	runner.Run(2)
	if got := reg.Counter("campaign.memo_hits").Load(); got != uint64(n) {
		t.Errorf("memo_hits after re-run = %d, want %d", got, n)
	}
	if got := reg.Counter("soc.refs").Load(); got != planned {
		t.Errorf("soc.refs after memoized re-run = %d, want unchanged %d", got, planned)
	}

	// Observation must not perturb results: an unobserved runner on the
	// same spec emits an identical report.
	plain, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(plain.Run(1))
	if string(a) != string(b) {
		t.Error("observed report differs from unobserved report")
	}
}
