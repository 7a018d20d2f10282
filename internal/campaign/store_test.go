package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim/soc"
)

func cancelSpec() Spec {
	return Spec{
		Engines:   []string{"aegis", "xom", "gi", "vlsi"},
		Workloads: []string{"sequential"},
		Refs:      []int{5000},
	}
}

func emitJSON(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Emit(&buf, rep, "json"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunContextCancelReportsPartialState(t *testing.T) {
	r, err := NewRunner(cancelSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	r.OnResult(func(Task, Result) {
		delivered++
		cancel() // stop after the first completed point
	})
	rep, err := r.RunContext(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("report has %d slots, want every grid point", len(rep.Results))
	}
	tasks := r.Plan()
	completed, canceled := 0, 0
	for i, res := range rep.Results {
		switch res.Err {
		case "":
			completed++
		case CanceledErr:
			canceled++
			// Placeholders still carry their grid point.
			if res.Key() != tasks[i].Cfg.Key() {
				t.Errorf("placeholder %d lost its config: %+v", i, res.TaskConfig)
			}
		default:
			t.Errorf("slot %d: unexpected error %q", i, res.Err)
		}
	}
	// Sequential execution + cancel-on-first-delivery: exactly one point
	// ran (the in-flight task always completes; later ones never start).
	if completed != 1 || canceled != 3 {
		t.Fatalf("completed=%d canceled=%d, want 1 and 3 (delivered=%d)",
			completed, canceled, delivered)
	}
	// The canceled placeholders never entered the store.
	if _, nres := r.store.Len(); nres != completed {
		t.Errorf("store holds %d results, want %d", nres, completed)
	}

	// The shared memo survives cancellation uncorrupted: finishing the
	// sweep on the same runner reuses the completed point and produces a
	// report byte-identical to a cold full run.
	r.OnResult(nil)
	full, err := r.RunContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Sweep(cancelSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emitJSON(t, full), emitJSON(t, fresh); got != want {
		t.Error("post-cancel rerun differs from a cold run")
	}
	if runs := r.store.ResultRuns(); runs != 4 {
		t.Errorf("store simulated %d points across cancel+rerun, want 4 (no recompute, no loss)", runs)
	}
}

func TestRunContextCancelStopsParallelWorkers(t *testing.T) {
	spec := cancelSpec()
	spec.Refs = []int{20000}
	r, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r.OnResult(func(Task, Result) { once.Do(cancel) })
	rep, err := r.RunContext(ctx, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	// With 4 workers the whole grid may have been in flight when cancel
	// landed, so completion counts are scheduling-dependent — but every
	// slot must be settled one way or the other, and whatever completed
	// must be the real deterministic value.
	want, err := Sweep(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if res.Err == CanceledErr {
			continue
		}
		a, _ := json.Marshal(res)
		b, _ := json.Marshal(want.Results[i])
		if !bytes.Equal(a, b) {
			t.Errorf("slot %d: completed-under-cancel value differs from canonical", i)
		}
	}
}

func TestRunContextUncancelledMatchesRun(t *testing.T) {
	spec := Spec{Engines: []string{"aegis"}, Workloads: []string{"sequential"}, Refs: []int{2000}}
	r1, _ := NewRunner(spec)
	rep1, err := r1.RunContext(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRunner(spec)
	rep2 := r2.Run(2)
	if got, want := emitJSON(t, rep1), emitJSON(t, rep2); got != want {
		t.Error("RunContext(Background) differs from Run")
	}
}

func TestSharedStoreAcrossRunners(t *testing.T) {
	spec := Spec{Engines: []string{"aegis", "xom"}, Workloads: []string{"sequential"}, Refs: []int{2000}}
	store := NewStore()

	r1, err := NewRunnerWith(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	rep1 := r1.Run(1)
	if runs := store.ResultRuns(); runs != 2 {
		t.Fatalf("first runner simulated %d points, want 2", runs)
	}
	// Both engines share one protection-independent baseline.
	if runs := store.BaselineRuns(); runs != 1 {
		t.Fatalf("baseline runs = %d, want 1", runs)
	}

	r2, err := NewRunnerWith(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := r2.Run(1)
	if runs := store.ResultRuns(); runs != 2 {
		t.Errorf("second runner resimulated: runs = %d, want still 2", runs)
	}
	if hits := store.ResultHits(); hits != 2 {
		t.Errorf("second runner hit the store %d times, want 2", hits)
	}
	if got, want := emitJSON(t, rep2), emitJSON(t, rep1); got != want {
		t.Error("store-served report differs from simulated report")
	}

	// Concurrent runners on one store: the singleflight memo guarantees
	// each point still runs at most once in total.
	store2 := NewStore()
	var wg sync.WaitGroup
	reps := make([]*Report, 4)
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewRunnerWith(spec, store2)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = r.Run(2)
		}()
	}
	wg.Wait()
	if runs := store2.ResultRuns(); runs != 2 {
		t.Errorf("4 concurrent runners simulated %d points, want 2", runs)
	}
	for i := 1; i < len(reps); i++ {
		if emitJSON(t, reps[i]) != emitJSON(t, reps[0]) {
			t.Errorf("concurrent runner %d emitted different bytes", i)
		}
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	spec := Spec{Engines: []string{"aegis", "xom"}, Workloads: []string{"sequential"}, Refs: []int{2000}}
	warm := NewStore()
	r, _ := NewRunnerWith(spec, warm)
	want := emitJSON(t, r.Run(1))

	var buf bytes.Buffer
	if err := warm.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cold := NewStore()
	if err := cold.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	nb, nr := cold.Len()
	if nb != 1 || nr != 2 {
		t.Fatalf("restored store Len = (%d, %d), want (1, 2)", nb, nr)
	}
	r2, _ := NewRunnerWith(spec, cold)
	if got := emitJSON(t, r2.Run(1)); got != want {
		t.Error("snapshot-served report differs from original")
	}
	if runs := cold.ResultRuns(); runs != 0 {
		t.Errorf("restored store simulated %d points, want 0", runs)
	}
	if runs := cold.BaselineRuns(); runs != 0 {
		t.Errorf("restored store resimulated %d baselines, want 0", runs)
	}
}

func TestStoreSnapshotSkipsFailedCells(t *testing.T) {
	// placement l1-l2 without an L2 fails its cell — a configuration
	// error that must be rediscovered, not persisted.
	spec := Spec{
		Engines:    []string{"aegis"},
		Workloads:  []string{"sequential"},
		Refs:       []int{1000},
		Placements: []string{"l1-l2"},
	}
	s := NewStore()
	r, err := NewRunnerWith(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run(1)
	if rep.Results[0].Err == "" {
		t.Fatal("expected the single-level l1-l2 cell to fail")
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, nr := restored.Len(); nr != 0 {
		t.Errorf("failed cell was persisted: restored store has %d results", nr)
	}
}

func TestStoreSnapshotRejectsVersionMismatch(t *testing.T) {
	s := NewStore()
	err := s.ReadSnapshot(strings.NewReader(`{"version":99,"baselines":{},"results":{}}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-99 snapshot accepted (err = %v)", err)
	}
	if err := s.ReadSnapshot(strings.NewReader(`{not json`)); err == nil {
		t.Fatal("malformed snapshot accepted")
	}
}

func TestStoreSnapshotRederivesKeys(t *testing.T) {
	// Result map keys in the file are untrusted: ReadSnapshot checks
	// every key against the one its value's embedded TaskConfig derives,
	// so an edited snapshot cannot alias a result onto a different grid
	// point. Entries under foreign keys are dropped and resimulated.
	spec := Spec{Engines: []string{"aegis"}, Workloads: []string{"sequential"}, Refs: []int{1000}}
	s := NewStore()
	r, _ := NewRunnerWith(spec, s)
	want := emitJSON(t, r.Run(1))

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var results map[string]json.RawMessage
	if err := json.Unmarshal(snap["results"], &results); err != nil {
		t.Fatal(err)
	}
	mangled := make(map[string]json.RawMessage, len(results))
	for k, v := range results {
		mangled["bogus "+k] = v
	}
	snap["results"], _ = json.Marshal(mangled)
	edited, _ := json.Marshal(snap)

	restored := NewStore()
	if err := restored.ReadSnapshot(bytes.NewReader(edited)); err != nil {
		t.Fatal(err)
	}
	if _, nr := restored.Len(); nr != 0 {
		t.Fatalf("restored %d results filed under foreign keys, want 0", nr)
	}
	r2, _ := NewRunnerWith(spec, restored)
	if got := emitJSON(t, r2.Run(1)); got != want {
		t.Error("resimulated report differs from the original")
	}
	if runs := restored.ResultRuns(); runs != 1 {
		t.Errorf("resimulated %d points, want the 1 dropped", runs)
	}
}

// Two file entries whose TaskConfigs derive the same key (an unset Auth
// spells "none") must not race on map order: only the entry filed under
// its own derived key loads, on every boot.
func TestStoreSnapshotCollidingKeysLoadDeterministically(t *testing.T) {
	own := Result{TaskConfig: TaskConfig{
		Engine: "aegis", Auth: "none", Workload: "sequential",
		Refs: 1000, CacheSize: 4096, LineSize: 32, BusWidth: 4,
	}, Cycles: 111}
	alias := own
	alias.Auth = ""
	alias.Cycles = 222
	key := own.Key()
	if alias.Key() != key {
		t.Fatal("fixture entries must derive the same key")
	}
	file, err := json.Marshal(storeSnapshot{
		Version:   SnapshotVersion,
		Baselines: map[string]soc.Report{},
		Results:   map[string]Result{key: own, "hand-edited": alias},
	})
	if err != nil {
		t.Fatal(err)
	}
	for boot := 0; boot < 50; boot++ {
		s := NewStore()
		if err := s.ReadSnapshot(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
		got := s.results.snapshot()
		if len(got) != 1 || got[key].Cycles != own.Cycles {
			t.Fatalf("boot %d loaded %+v, want only the entry filed under its own key", boot, got)
		}
	}
}

func TestStoreSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	spec := Spec{Engines: []string{"xom"}, Workloads: []string{"sequential"}, Refs: []int{1000}}
	s := NewStore()
	r, _ := NewRunnerWith(spec, s)
	r.Run(1)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Atomic write: no temp droppings left beside the checkpoint.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".store-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	restored := NewStore()
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, nr := restored.Len(); nr != 1 {
		t.Errorf("restored %d results, want 1", nr)
	}
	// A missing file surfaces as fs.ErrNotExist — the cold-start path.
	err := NewStore().LoadFile(filepath.Join(t.TempDir(), "absent.json"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing checkpoint: err = %v, want ErrNotExist", err)
	}
}

// FuzzReadSnapshot: checkpoint files are untrusted. Loading arbitrary
// bytes must not panic, and whatever loads must write back to a
// fixpoint: write, read into a fresh store, write again, same bytes.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		s := NewStore()
		if err := s.ReadSnapshot(bytes.NewReader(in)); err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.WriteSnapshot(&first); err != nil {
			t.Fatalf("accepted snapshot does not write: %v", err)
		}
		again := NewStore()
		if err := again.ReadSnapshot(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("written snapshot rejected: %v\n%s", err, first.Bytes())
		}
		if err := again.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write is not a fixpoint:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
