package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// startServer builds a fabric + HTTP front end and tears both down
// with the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSpec(t *testing.T, base, specJSON string) (Status, int) {
	t.Helper()
	resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func listSweeps(t *testing.T, base string) []Status {
	t.Helper()
	body, code := getBody(t, base+"/sweeps")
	var list []Status
	if err := json.Unmarshal([]byte(body), &list); err != nil || code != http.StatusOK {
		t.Fatalf("GET /sweeps = %d %s (err %v)", code, body, err)
	}
	return list
}

// cancelSweep sends DELETE /sweeps/{id} and returns the Status it
// answers with.
func cancelSweep(t *testing.T, base, id string) Status {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/sweeps/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, base, id)
		if st.State == StateDone || st.State == StateCanceled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// referenceReport runs the same spec through the library path the
// sweep CLI uses and emits it in the given format — the bytes the
// service must reproduce exactly.
func referenceReport(t *testing.T, specJSON, format string) string {
	t.Helper()
	spec, err := campaign.ParseSpecJSON(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Sweep(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := campaign.Emit(&buf, rep, format); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

const smallSpec = `{"engines":["aegis","xom"],"workloads":["sequential"],"refs":[2000]}`

func TestSweepLifecycleByteIdenticalToCLI(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})

	st, code := postSpec(t, ts.URL, smallSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	if st.ID == "" || st.Tasks != 2 {
		t.Fatalf("admission status = %+v", st)
	}

	// Drain the incremental stream: every row, canonical order, valid
	// JSON, and the stream ends exactly when the sweep does.
	resp, err := http.Get(ts.URL + "/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", got)
	}
	var rows []campaign.Result
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r campaign.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", sc.Text(), err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	spec, _ := campaign.ParseSpecJSON(strings.NewReader(smallSpec))
	tasks := spec.Expand()
	if len(rows) != len(tasks) {
		t.Fatalf("streamed %d rows, want %d", len(rows), len(tasks))
	}
	for i, r := range rows {
		if r.Key() != tasks[i].Cfg.Key() {
			t.Errorf("row %d = %s, want canonical order %s", i, r.Key(), tasks[i].Cfg.Key())
		}
		if r.Err != "" {
			t.Errorf("row %d failed: %s", i, r.Err)
		}
	}

	st = waitTerminal(t, ts.URL, st.ID)
	if st.State != StateDone || st.TasksDone != 2 || st.Rows != 2 {
		t.Fatalf("final status = %+v", st)
	}

	// The final report must be byte-identical to the CLI/library run of
	// the same spec, in every format.
	for _, format := range campaign.Formats {
		got, code := getBody(t, ts.URL+"/sweeps/"+st.ID+"/result?format="+format)
		if code != http.StatusOK {
			t.Fatalf("result?format=%s = %d", format, code)
		}
		if want := referenceReport(t, smallSpec, format); got != want {
			t.Errorf("format %s: server report differs from CLI report\nserver:\n%s\nCLI:\n%s", format, got, want)
		}
	}

	// A late subscriber replays the whole canonical stream.
	body, _ := getBody(t, ts.URL+"/sweeps/"+st.ID+"/results")
	if n := strings.Count(body, "\n"); n != len(tasks) {
		t.Errorf("replayed stream has %d rows, want %d", n, len(tasks))
	}
}

func TestAdmissionQueueOverflow(t *testing.T) {
	// Not started: nothing drains the queue, so admission behavior is
	// deterministic — the first sweep queues, the second bounces.
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st1, code := postSpec(t, ts.URL, smallSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	if st1.State != StateQueued {
		t.Fatalf("first sweep state = %s, want queued", st1.State)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429 (%s)", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Start drains the queue; the admitted sweep completes, and
	// admission reopens.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitTerminal(t, ts.URL, st1.ID)
	if _, code := postSpec(t, ts.URL, smallSpec); code != http.StatusAccepted {
		t.Fatalf("post-drain POST = %d, want 202", code)
	}

	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `"serve.sweeps_rejected": 1`) {
		t.Errorf("metrics do not record the rejection:\n%s", metrics)
	}
}

func TestCancelKeepsPartialStateAndMemoIntact(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})

	// A grid big enough that cancellation lands mid-sweep: all eight
	// engines × two workloads on one worker.
	bigSpec := `{"workloads":["sequential","firmware"],"refs":[50000]}`
	st, code := postSpec(t, ts.URL, bigSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	reg := liveRegistry(t, s, st.ID)

	// Subscribe and cancel as soon as the first row is out.
	resp, err := http.Get(ts.URL + "/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream ended before first row")
	}
	cancelSweep(t, ts.URL, st.ID)
	// The stream must terminate (rows for every slot, completed or
	// placeholder, then EOF).
	rows := 1
	for sc.Scan() {
		rows++
	}
	resp.Body.Close()

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}

	body, code := getBody(t, ts.URL+"/sweeps/"+st.ID+"/result?format=json")
	if code != http.StatusOK {
		t.Fatalf("result after cancel = %d", code)
	}
	var rep campaign.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	completed, skipped := 0, 0
	for _, r := range rep.Results {
		switch r.Err {
		case "":
			completed++
		case campaign.CanceledErr:
			skipped++
		default:
			t.Errorf("unexpected cell error %q", r.Err)
		}
	}
	if completed == 0 || skipped == 0 {
		t.Fatalf("partial state: completed=%d skipped=%d, want both > 0 (rows streamed: %d)",
			completed, skipped, rows)
	}
	if rows != len(rep.Results) {
		t.Errorf("stream delivered %d rows, report has %d", rows, len(rep.Results))
	}
	last := lastSample(reg, Status{ID: st.ID, State: StateCanceled,
		Tasks: len(rep.Results), Rows: len(rep.Results), Err: context.Canceled.Error()})
	if last.TasksDone != uint64(completed) {
		t.Errorf("last live sample counts %d tasks done, report has %d completed", last.TasksDone, completed)
	}
	checkFrozen(t, ts.URL, last)

	// The shared store holds only the completed points — no canceled
	// placeholder may have leaked in.
	if _, nres := s.store.Len(); nres != completed {
		t.Errorf("store holds %d results, want %d completed", nres, completed)
	}

	// Resubmitting the same grid completes it, reusing every completed
	// point (memo hits == previously completed cells).
	st2, code := postSpec(t, ts.URL, bigSpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit POST = %d", code)
	}
	reg2 := liveRegistry(t, s, st2.ID)
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != StateDone {
		t.Fatalf("resubmit state = %s", final2.State)
	}
	if final2.MemoHits < uint64(completed) {
		t.Errorf("resubmit memo hits = %d, want >= %d", final2.MemoHits, completed)
	}
	last2 := lastSample(reg2, Status{ID: st2.ID, State: StateDone,
		Tasks: len(rep.Results), Rows: len(rep.Results)})
	if last2.TasksDone != uint64(len(rep.Results)) {
		t.Errorf("last live sample counts %d tasks done, want %d", last2.TasksDone, len(rep.Results))
	}
	checkFrozen(t, ts.URL, last2)
}

// liveRegistry returns a sweep's metrics registry while the sweep
// runs. Finalize drops the job's reference; the caller's keeps the
// registry readable as the sweep's last live sample.
func liveRegistry(t *testing.T, s *Server, id string) *obs.Registry {
	t.Helper()
	j := s.job(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.reg == nil {
		t.Fatalf("sweep %s finished before its registry was read", id)
	}
	return j.reg
}

// lastSample completes st with the counters reg holds: the Status a
// live read would return after the sweep's last task.
func lastSample(reg *obs.Registry, st Status) Status {
	st.TasksDone = reg.Counter("campaign.tasks_done").Load()
	st.TaskErrors = reg.Counter("campaign.task_errors").Load()
	st.MemoHits = reg.Counter("campaign.memo_hits").Load()
	st.RefsPlanned = reg.Gauge("campaign.refs_planned").Load()
	st.RefsDone = reg.Counter("soc.refs").Load()
	return st
}

// checkFrozen asserts that a finished sweep reports want, its last
// live sample, on GET /sweeps/{id} and in GET /sweeps, and that a
// DELETE after completion changes nothing.
func checkFrozen(t *testing.T, base string, want Status) {
	t.Helper()
	if got := getStatus(t, base, want.ID); got != want {
		t.Errorf("GET /sweeps/%s = %+v, want the last live sample %+v", want.ID, got, want)
	}
	found := false
	for _, got := range listSweeps(t, base) {
		if got.ID == want.ID {
			found = true
			if got != want {
				t.Errorf("GET /sweeps lists %+v, want the last live sample %+v", got, want)
			}
		}
	}
	if !found {
		t.Errorf("GET /sweeps does not list %s", want.ID)
	}
	if got := cancelSweep(t, base, want.ID); got != want {
		t.Errorf("DELETE after completion answers %+v, want %+v", got, want)
	}
	if got := getStatus(t, base, want.ID); got != want {
		t.Errorf("GET /sweeps/%s after DELETE = %+v, want %+v", want.ID, got, want)
	}
}

// TestFinishedSweepFootprint bounds the heap a finished sweep keeps:
// its report and final Status, not the runner, task list or metrics
// registry that served its run.
func TestFinishedSweepFootprint(t *testing.T) {
	s := New(Config{Workers: 2})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	submit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweeps", strings.NewReader(smallSpec)))
		var st Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("POST = %d %s", rec.Code, rec.Body)
		}
		// The stream ends once the sweep is finalized.
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/sweeps/"+st.ID+"/results", nil))
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	submit() // simulates both cells; every later sweep is memo-served
	const sweeps = 1000
	const maxPerSweep = 3584
	before := heap()
	for range sweeps {
		submit()
	}
	perSweep := (heap() - before) / sweeps
	t.Logf("retained heap per finished sweep: %d B", perSweep)
	if perSweep > maxPerSweep {
		t.Errorf("each finished sweep retains %d B of heap, want <= %d", perSweep, maxPerSweep)
	}
	if hits := s.store.ResultHits(); hits != 2*sweeps {
		t.Errorf("store served %d memo hits, want %d", hits, 2*sweeps)
	}
}

func TestConcurrentOverlappingSweepsShareTheStore(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2, MaxActive: 2})

	var ids [2]string
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, code := postSpec(t, ts.URL, smallSpec)
			if code != http.StatusAccepted {
				t.Errorf("POST = %d", code)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if ids[0] == "" || ids[1] == "" {
		t.Fatal("admission failed")
	}

	var bodies [2]string
	for i, id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("sweep %s state = %s", id, st.State)
		}
		bodies[i], _ = getBody(t, ts.URL+"/sweeps/"+id+"/result?format=csv")
	}
	if bodies[0] != bodies[1] {
		t.Error("overlapping sweeps emitted different reports")
	}

	// The overlap must have been served from the shared store: two
	// sweeps of a 2-task grid simulate 2 points and hit the memo twice
	// (the singleflight memo serializes even perfectly simultaneous
	// computations of one key).
	if hits := s.store.ResultHits(); hits == 0 {
		t.Error("no shared-memo hits recorded across overlapping sweeps")
	}
	if runs := s.store.ResultRuns(); runs != 2 {
		t.Errorf("store simulated %d points, want 2", runs)
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{`"serve.store_result_hits": 2`, `"serve.sweeps_completed": 2`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s:\n%s", want, metrics)
		}
	}
}

func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")

	s1, ts1 := startServer(t, Config{Workers: 2, SnapshotPath: path})
	st, code := postSpec(t, ts1.URL, smallSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitTerminal(t, ts1.URL, st.ID)
	runs := s1.store.ResultRuns()
	if runs != 2 {
		t.Fatalf("first server simulated %d points, want 2", runs)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// A fresh server resumes from the checkpoint: the same grid is
	// served entirely from the restored store.
	s2, ts2 := startServer(t, Config{Workers: 2, SnapshotPath: path})
	st2, code := postSpec(t, ts2.URL, smallSpec)
	if code != http.StatusAccepted {
		t.Fatalf("resume POST = %d", code)
	}
	final := waitTerminal(t, ts2.URL, st2.ID)
	if final.State != StateDone {
		t.Fatalf("resume state = %s", final.State)
	}
	if got := s2.store.ResultRuns(); got != 0 {
		t.Errorf("resumed server simulated %d points, want 0 (checkpoint should cover them)", got)
	}
	if final.MemoHits != 2 {
		t.Errorf("resumed sweep memo hits = %d, want 2", final.MemoHits)
	}

	// And its report still matches the reference bytes exactly.
	body, _ := getBody(t, ts2.URL+"/sweeps/"+st2.ID+"/result?format=csv")
	if want := referenceReport(t, smallSpec, "csv"); body != want {
		t.Error("resumed report differs from reference")
	}
}

func TestAdmissionErrors(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, MaxTasks: 4})

	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{engines}`, http.StatusBadRequest},
		{"unknown field", `{"engine":["aegis"]}`, http.StatusBadRequest},
		{"unknown engine", `{"engines":["warp-drive"]}`, http.StatusBadRequest},
		{"zero refs", `{"refs":[0]}`, http.StatusBadRequest},
		{"bad placement", `{"placements":["l3-dram"]}`, http.StatusBadRequest},
		{"too many tasks", `{"engines":["aegis"],"workloads":["sequential"],"refs":[1000],"cache_sizes":[4096,8192,16384,32768,65536]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: POST = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, b)
		}
		if !json.Valid(b) {
			t.Errorf("%s: error body is not JSON: %s", tc.name, b)
		}
	}

	for _, url := range []string{"/sweeps/nope", "/sweeps/nope/results", "/sweeps/nope/result"} {
		if _, code := getBody(t, ts.URL+url); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, code)
		}
	}
	if body, code := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q", code, body)
	}
	if body, code := getBody(t, ts.URL+"/trace"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("/trace = %d, body valid JSON = %v", code, json.Valid([]byte(body)))
	}
}

func TestOverflowingGridRefused(t *testing.T) {
	// Five axes of 8192 entries are 2^65 tasks, which wraps int to 0.
	// Unstarted, so nothing would expand a grid that got through.
	ones := strings.TrimSuffix(strings.Repeat("1,", 8192), ",")
	body := fmt.Sprintf(`{"engines":["aegis"],"workloads":["sequential"],"refs":[%[1]s],`+
		`"cache_sizes":[%[1]s],"line_sizes":[%[1]s],"bus_widths":[%[1]s],"attack_rates":[%[1]s]}`, ones)
	s := New(Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweeps", strings.NewReader(body)))
	if rec.Code/100 != 4 {
		t.Fatalf("POST of an overflowing grid = %d, want 4xx: %s", rec.Code, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Errorf("error body is not JSON: %s", rec.Body)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	// Unstarted server: the sweep stays queued, so /result must 409.
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, code := postSpec(t, ts.URL, smallSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if _, code := getBody(t, ts.URL+"/sweeps/"+st.ID+"/result?format=csv"); code != http.StatusConflict {
		t.Errorf("result while queued = %d, want 409", code)
	}
	if _, code := getBody(t, ts.URL+"/sweeps/"+st.ID+"/result?format=nope"); code != http.StatusBadRequest {
		t.Errorf("bad format = %d, want 400", code)
	}
	// List shows the queued sweep.
	if list := listSweeps(t, ts.URL); len(list) != 1 || list[0].State != StateQueued {
		t.Errorf("list = %+v, want the one queued sweep", list)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ts.URL, st.ID)
	s.Close()

	// After Close, admission answers 503.
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after Close = %d, want 503", resp.StatusCode)
	}
}

func TestTracedSweepServesTrace(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, TraceCap: 1 << 12})
	st, code := postSpec(t, ts.URL, `{"engines":["aegis"],"workloads":["sequential"],"refs":[2000]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitTerminal(t, ts.URL, st.ID)
	body, code := getBody(t, ts.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("trace not Chrome JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("traced sweep produced no trace events")
	}
}

func ExampleServer() {
	s := New(Config{Workers: 1})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := http.Post(ts.URL+"/sweeps", "application/json",
		strings.NewReader(`{"engines":["xom"],"workloads":["sequential"],"refs":[1000]}`))
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	fmt.Println("admitted:", st.State)
	// Output: admitted: queued
}

func TestCloseBeforeStart(t *testing.T) {
	s := New(Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
