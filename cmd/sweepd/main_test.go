package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// daemon runs sweepd in-process on an ephemeral port and returns its
// base URL once run announces it. stop cancels run's context, standing
// in for SIGTERM, and returns its exit code; cleanup calls it too, so
// no server outlives its test.
func daemon(t *testing.T, args ...string) (base string, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	var code int
	done := make(chan struct{})
	go func() {
		code = run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, pw)
		pw.Close()
		close(done)
	}()
	stop = func() int {
		cancel()
		<-done
		return code
	}
	t.Cleanup(func() { stop() })
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "sweepd: serving on "); ok {
			base = rest
			break
		}
	}
	go io.Copy(io.Discard, pr) // drain so run never blocks on stderr
	if base == "" {
		t.Fatalf("no serving address on stderr (scan err %v)", sc.Err())
	}
	return base, stop
}

func postSpec(t *testing.T, base, specJSON string) string {
	t.Helper()
	resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("no sweep id in %s (err %v)", body, err)
	}
	return st.ID
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

const e2eSpec = `{"engines":["aegis","xom","gi"],"workloads":["sequential"],"refs":[2000]}`

func TestServerReportMatchesCLIByteForByte(t *testing.T) {
	base, _ := daemon(t)

	// Server side: POST, drain the live NDJSON stream, fetch the report.
	id := postSpec(t, base, e2eSpec)
	stream := get(t, base+"/sweeps/"+id+"/results")
	rows := strings.Split(strings.TrimSuffix(stream, "\n"), "\n")
	if len(rows) != 3 {
		t.Fatalf("streamed %d rows, want 3:\n%s", len(rows), stream)
	}
	for _, row := range rows {
		var res struct {
			Engine string `json:"engine"`
			Err    string `json:"err"`
		}
		if err := json.Unmarshal([]byte(row), &res); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", row, err)
		}
		if res.Err != "" {
			t.Fatalf("row failed: %s", res.Err)
		}
	}

	// CLI side: what `sweep -spec` emits for the same spec.
	spec, err := campaign.ParseSpecJSON(strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Sweep(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"table", "csv", "json"} {
		var cli bytes.Buffer
		if err := campaign.Emit(&cli, rep, format); err != nil {
			t.Fatal(err)
		}
		server := get(t, base+"/sweeps/"+id+"/result?format="+format)
		if server != cli.String() {
			t.Errorf("format %s: server and CLI reports differ\nserver:\n%s\nCLI:\n%s",
				format, server, cli.String())
		}
	}
}

func TestOverlappingSweepsShareWork(t *testing.T) {
	base, _ := daemon(t, "-workers", "2", "-max-active", "2")

	// Two POSTs of one grid: the second must be served from the shared
	// store, not resimulated.
	id1 := postSpec(t, base, e2eSpec)
	id2 := postSpec(t, base, e2eSpec)
	var reports [2]string
	for i, id := range []string{id1, id2} {
		get(t, base+"/sweeps/"+id+"/results") // blocks until done
		reports[i] = get(t, base+"/sweeps/"+id+"/result?format=csv")
	}
	if reports[0] != reports[1] {
		t.Error("overlapping sweeps returned different reports")
	}

	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/metrics")), &snap); err != nil {
		t.Fatal(err)
	}
	if hits := snap.Gauges["serve.store_result_hits"]; hits == 0 {
		t.Errorf("no shared-memo hits across overlapping sweeps: %v", snap.Gauges)
	}
	if runs := snap.Gauges["serve.store_result_runs"]; runs != 3 {
		t.Errorf("store simulated %d points for two identical 3-point sweeps, want 3", runs)
	}
}

func TestGracefulShutdownWritesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "store.json")
	base, stop := daemon(t, "-store", ckpt)

	id := postSpec(t, base, `{"engines":["xom"],"workloads":["sequential"],"refs":[1000]}`)
	get(t, base+"/sweeps/"+id+"/results")

	if code := stop(); code != 0 {
		t.Fatalf("shutdown exited %d", code)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}
	var snap struct {
		Version int                        `json:"version"`
		Results map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("checkpoint is not JSON: %v", err)
	}
	if snap.Version != 1 || len(snap.Results) != 1 {
		t.Errorf("checkpoint version=%d results=%d, want 1 and 1", snap.Version, len(snap.Results))
	}

	// A restarted daemon warm-starts from the checkpoint: the same grid
	// is pure memo hits, zero new simulations.
	base2, _ := daemon(t, "-store", ckpt)
	id2 := postSpec(t, base2, `{"engines":["xom"],"workloads":["sequential"],"refs":[1000]}`)
	get(t, base2+"/sweeps/"+id2+"/results")
	var snap2 struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(get(t, base2+"/metrics")), &snap2); err != nil {
		t.Fatal(err)
	}
	if runs := snap2.Gauges["serve.store_result_runs"]; runs != 0 {
		t.Errorf("restarted daemon resimulated %d points, want 0", runs)
	}
}

func TestBadFlagAndBadSpecExitNonzero(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "no-such-flag"},
		{[]string{"-addr", "127.0.0.1:0", "-trace-cap", "nope"}, 1, "-trace-cap"},
	} {
		var stderr bytes.Buffer
		code := run(context.Background(), tc.args, io.Discard, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: code=%d stderr=%q, want code %d naming %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-h"}, &stdout, &stderr)
	if code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-max-tasks") {
		t.Errorf("-h: code=%d stdout=%q stderr=%q", code, stdout.String(), stderr.String())
	}
}

func TestCancelEndpoint(t *testing.T) {
	base, _ := daemon(t, "-workers", "1")
	// All engines × two workloads, long enough that DELETE lands mid-run.
	id := postSpec(t, base, `{"workloads":["sequential","firmware"],"refs":[50000]}`)

	resp, err := http.Get(base + "/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream ended before first row")
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/sweeps/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}
	// The stream terminates promptly rather than hanging on dead work.
	drained := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after DELETE")
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/sweeps/"+id)), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" {
		t.Errorf("state after DELETE = %q, want canceled", st.State)
	}
	if body := get(t, base+"/sweeps/"+id+"/result?format=csv"); !strings.Contains(body, "canceled") {
		t.Error("partial report carries no canceled placeholders")
	}
}
