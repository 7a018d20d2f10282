package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/rec"
)

// cli runs the command in-process and returns stdout, stderr and the
// exit code main would pass to os.Exit.
func cli(args ...string) (string, string, int) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestBadFlagExitsNonzero(t *testing.T) {
	stdout, stderr, code := cli("-no-such-flag")
	if code == 0 {
		t.Error("bad flag exited 0")
	}
	if stdout != "" {
		t.Errorf("bad flag wrote to stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "no-such-flag") {
		t.Errorf("stderr does not name the bad flag: %q", stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	stdout, stderr, code := cli("-h")
	if code != 0 || stdout != "" || !strings.Contains(stderr, "-spec") {
		t.Errorf("-h: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

func TestBadOutputPathExitsNonzero(t *testing.T) {
	stdout, stderr, code := cli(
		"-engines", "aegis", "-workloads", "sequential", "-refs", "1000",
		"-o", filepath.Join(t.TempDir(), "missing-dir", "out.json"))
	if code == 0 {
		t.Error("unwritable -o path exited 0")
	}
	if stdout != "" {
		t.Errorf("error run wrote to stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "sweep:") {
		t.Errorf("stderr missing error prefix: %q", stderr)
	}
}

// The determinism contract with live progress on: a -jobs 8 -progress
// run must emit stdout byte-identical to -jobs 1 -progress (progress is
// stderr-only), and the stream must carry at least the final line.
func TestProgressStdoutDeterministic(t *testing.T) {
	grid := []string{
		"-engines", "aegis,xom,gi", "-workloads", "sequential,pointer-chase",
		"-refs", "3000", "-format", "json", "-q",
		"-progress", "-progress-interval", "10ms",
	}
	out1, err1, code := cli(append([]string{"-jobs", "1"}, grid...)...)
	if code != 0 {
		t.Fatalf("jobs=1 exited %d: %s", code, err1)
	}
	out8, err8, code := cli(append([]string{"-jobs", "8"}, grid...)...)
	if code != 0 {
		t.Fatalf("jobs=8 exited %d: %s", code, err8)
	}
	if out1 != out8 {
		t.Error("-jobs 8 -progress stdout differs from -jobs 1 -progress")
	}
	for name, se := range map[string]string{"jobs=1": err1, "jobs=8": err8} {
		if !strings.Contains(se, "progress:") {
			t.Errorf("%s stderr has no progress lines: %q", name, se)
		}
	}
}

func TestProgressJSONLines(t *testing.T) {
	_, stderr, code := cli(
		"-engines", "aegis", "-workloads", "sequential", "-refs", "2000",
		"-progress-json", "-q")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	var sawFinal bool
	for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
		var rec struct {
			Done  uint64 `json:"done"`
			Total uint64 `json:"total"`
			Unit  string `json:"unit"`
			Final bool   `json:"final"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON progress line %q: %v", line, err)
		}
		if rec.Final {
			sawFinal = true
			if rec.Done != rec.Total || rec.Done == 0 {
				t.Errorf("final line done=%d total=%d", rec.Done, rec.Total)
			}
			if rec.Unit != "refs" {
				t.Errorf("unit = %q", rec.Unit)
			}
		}
	}
	if !sawFinal {
		t.Error("no final progress line")
	}
}

// -pprof serves the live /metrics snapshot while the sweep runs, and
// the server stops when run returns.
func TestPprofMetricsEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	var code int
	done := make(chan struct{})
	go func() {
		// Hundreds of short cells: the sweep outlasts the requests
		// below, and cancellation lands within one cell.
		code = run(ctx, []string{
			"-engines", "ds5002,gilmont", "-workloads", "sequential,streaming",
			"-refs", "20000,40000", "-cache", "1K,2K,4K,8K,16K,32K,64K,128K",
			"-line", "16,32,64", "-bus", "2,4,8", "-jobs", "2", "-q", "-pprof", "127.0.0.1:0",
		}, io.Discard, pw)
		pw.Close()
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// The debug server announces its bound address before the sweep runs.
	sc := bufio.NewScanner(pr)
	var addr string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "sweep: pprof+metrics+trace on "); ok {
			addr = rest
			break
		}
	}
	go io.Copy(io.Discard, pr) // drain so run never blocks on stderr
	if addr == "" {
		t.Fatalf("no debug-server address on stderr (scan err %v)", sc.Err())
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Counters["soc.refs"]; !ok {
		t.Errorf("snapshot has no soc.refs counter: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["campaign.tasks_total"]; !ok {
		t.Errorf("snapshot has no campaign.tasks_total gauge: %v", snap.Gauges)
	}

	resp2, err := client.Get(addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp2.StatusCode)
	}

	// The live flight-recorder snapshot serves beside /metrics: whatever
	// has completed so far must decode as a valid Chrome trace.
	resp3, err := client.Get(addr + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	snapTrace, err := rec.DecodeChrome(resp3.Body)
	if err != nil {
		t.Fatalf("/trace does not decode: %v", err)
	}
	if err := rec.Validate(snapTrace); err != nil {
		t.Errorf("/trace snapshot invalid: %v", err)
	}

	// Once run returns, the debug server is gone with it.
	cancel()
	<-done
	if code != 1 {
		t.Errorf("canceled sweep exited %d, want 1", code)
	}
	if conn, err := net.Dial("tcp", strings.TrimPrefix(addr, "http://")); err == nil {
		conn.Close()
		t.Error("debug server still accepts connections after run returned")
	}
}

// -trace output is part of the determinism contract: the canonical
// merged trace of a -jobs 8 sweep is byte-identical to -jobs 1, it
// round-trips through the decoder, and the CSV variant picks its format
// from the suffix.
func TestTraceOutputDeterministicAndDecodable(t *testing.T) {
	dir := t.TempDir()
	grid := []string{
		"-engines", "aegis", "-workloads", "sequential", "-refs", "3000",
		"-authtree", "none,tree", "-attack", "16", "-format", "json", "-q",
	}
	traced := func(name string, jobs int) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		stdout, stderr, code := cli(append([]string{"-jobs", fmt.Sprint(jobs), "-trace", path}, grid...)...)
		if code != 0 {
			t.Fatalf("jobs=%d exited %d: %s", jobs, code, stderr)
		}
		if stdout == "" {
			t.Fatalf("jobs=%d: no results on stdout", jobs)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	j1 := traced("j1.json", 1)
	j8 := traced("j8.json", 8)
	if !bytes.Equal(j1, j8) {
		t.Error("-trace output differs between -jobs 1 and -jobs 8")
	}
	if !json.Valid(j1) {
		t.Fatal("-trace output is not valid JSON")
	}
	tr, err := rec.DecodeChrome(bytes.NewReader(j1))
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if err := rec.Validate(tr); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if len(tr.Streams) != 2 {
		t.Errorf("trace has %d streams, want one per task (2)", len(tr.Streams))
	}

	csvPath := filepath.Join(dir, "out.csv")
	_, stderr, code := cli(append([]string{"-trace", csvPath, "-trace-cap", "1K"}, grid...)...)
	if code != 0 {
		t.Fatalf("csv trace run exited %d: %s", code, stderr)
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(csvData, []byte("track,seq,kind,cycle,ref,addr,level,flags,arg\n")) {
		t.Errorf("csv trace missing header: %.80q", csvData)
	}
}

// -spec reads the exact JSON payload sweepd accepts, and must be
// interchangeable with the axis flags: same grid, same bytes.
func TestSpecFileMatchesAxisFlags(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(specPath, []byte(
		`{"engines":["aegis","xom"],"workloads":["sequential"],"refs":[2000],"cache_sizes":[4096]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	fromSpec, stderr, code := cli("-spec", specPath, "-format", "csv", "-q")
	if code != 0 {
		t.Fatalf("-spec exited %d: %s", code, stderr)
	}
	fromFlags, stderr, code := cli(
		"-engines", "aegis,xom", "-workloads", "sequential", "-refs", "2000",
		"-cache", "4K", "-format", "csv", "-q")
	if code != 0 {
		t.Fatalf("axis flags exited %d: %s", code, stderr)
	}
	if fromSpec != fromFlags {
		t.Errorf("-spec output differs from axis flags\nspec:\n%s\nflags:\n%s", fromSpec, fromFlags)
	}
}

func TestSpecFileErrors(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(specPath, []byte(`{"engines":["aegis"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Mixing -spec with axis flags is ambiguous, not merged.
	stdout, stderr, code := cli("-spec", specPath, "-engines", "xom")
	if code == 0 || stdout != "" || !strings.Contains(stderr, "-spec replaces") {
		t.Errorf("-spec + axis flags: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	// Missing and malformed files fail before any simulation.
	_, stderr, code = cli("-spec", filepath.Join(t.TempDir(), "absent.json"))
	if code == 0 || !strings.Contains(stderr, "sweep:") {
		t.Errorf("missing spec file: code=%d stderr=%q", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"engins":["aegis"]}`), 0o644)
	_, stderr, code = cli("-spec", bad)
	if code == 0 || !strings.Contains(stderr, "unknown field") {
		t.Errorf("typoed spec field: code=%d stderr=%q", code, stderr)
	}
	// Five axes of 8192 entries are 2^65 tasks: refused, not expanded.
	huge := filepath.Join(t.TempDir(), "huge.json")
	ones := strings.TrimSuffix(strings.Repeat("1,", 8192), ",")
	os.WriteFile(huge, fmt.Appendf(nil, `{"engines":["aegis"],"workloads":["sequential"],"refs":[%[1]s],`+
		`"cache_sizes":[%[1]s],"line_sizes":[%[1]s],"bus_widths":[%[1]s],"attack_rates":[%[1]s]}`, ones), 0o644)
	_, stderr, code = cli("-spec", huge)
	if code == 0 || !strings.Contains(stderr, "more than") {
		t.Errorf("overflowing grid: code=%d stderr=%q", code, stderr)
	}
}

func TestBadTraceCapExitsNonzero(t *testing.T) {
	for _, bad := range []string{"0", "-5", "4,8", "nope"} {
		stdout, stderr, code := cli(
			"-engines", "aegis", "-workloads", "sequential", "-refs", "1000",
			"-trace", filepath.Join(t.TempDir(), "t.json"), "-trace-cap", bad)
		if code == 0 {
			t.Errorf("-trace-cap %q exited 0", bad)
		}
		if stdout != "" {
			t.Errorf("-trace-cap %q wrote stdout: %q", bad, stdout)
		}
		if !strings.Contains(stderr, "-trace-cap") {
			t.Errorf("-trace-cap %q stderr: %q", bad, stderr)
		}
		// A malformed value is rejected even with no tracer armed.
		_, stderr, code = cli(
			"-engines", "aegis", "-workloads", "sequential", "-refs", "1000",
			"-trace-cap", bad)
		if code == 0 || !strings.Contains(stderr, "-trace-cap") {
			t.Errorf("-trace-cap %q without -trace: code=%d stderr=%q", bad, code, stderr)
		}
	}
}
