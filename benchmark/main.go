// Command benchmark measures the repository's host cost end to end, on
// five workloads, and layer by layer, in a separate traced run.
//
// From the repository root:
//
//	bash benchmark/run.sh                        # every workload, one child process each
//	bash benchmark/run.sh -workload aegis-seq    # one workload in this process
//	bash benchmark/run.sh -trace 1               # the per-layer ladder instead
//	bash benchmark/run.sh -compare parent.json change.json
//
// A single-workload run prints, as its last line of standard output, a
// JSON object with the keys correct, attempted, failed and metrics, and
// exits nonzero when an output check failed. README.md documents the
// workloads, metrics, bounds and noise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// statusOut receives the human-readable progress lines.
var statusOut io.Writer = os.Stderr

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: every workload, one child process each)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload; sizes the op counts")
	traced := flag.Int("trace", 0, "1 runs the per-layer ladder instead of the end-to-end metrics")
	out := flag.String("out", "", "append the run's results to this file as one JSON line")
	cmp := flag.Bool("compare", false, "compare two -out files of paired runs: -compare parent.json change.json")
	flag.Parse()

	switch {
	case *cmp:
		if flag.NArg() != 2 {
			fatalf("-compare takes two files: parent.json change.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fatalf("unexpected arguments %q", flag.Args())
	case *traced != 0 && *traced != 1:
		fatalf("-trace must be 0 or 1, not %d", *traced)
	case *seconds <= 0:
		fatalf("-seconds must be positive")
	case *workload != "":
		res, err := runOne(*workload, *seed, *seconds, *traced == 1, standard)
		if err != nil {
			fatalf("%v", err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(js))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(*seed, *seconds, *traced, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process: its end-to-end metrics, or
// with traced the per-layer ladder.
func runOne(name string, seed int64, seconds float64, traced bool, sz sizes) (result, error) {
	i := slices.IndexFunc(workloads(), func(w workload) bool { return w.name == name })
	if i < 0 {
		return result{}, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
	}
	b := newBench(seed, seconds, sz, traced)
	fmt.Fprintf(statusOut, "%s: seed %d, %g s, trace %v\n", name, seed, seconds, traced)
	if traced {
		runLadder(b, name)
	} else {
		workloads()[i].run(b)
	}
	return b.result(), nil
}

// record is one default run as -out appends it: every workload's result
// line.
type record struct {
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Trace   int               `json:"trace"`
	Results map[string]result `json:"results"`
}

// runAll runs every workload in its own child process, one after
// another, prints each metric as "workload metric value unit", and
// returns the exit status: nonzero when a child failed or reported a
// failed check.
func runAll(seed int64, seconds float64, traced int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	rec := record{Seed: seed, Seconds: seconds, Trace: traced, Results: make(map[string]result)}
	status := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			fatalf("running %s: %v", name, err)
		}
		res, perr := lastResult(stdout)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v (%v)\n", name, perr, err)
			status = 1
			continue
		}
		rec.Results[name] = res
		if !res.Correct || err != nil {
			status = 1
		}
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Printf("%s %s %.6g %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
		fmt.Printf("%s correct %v attempted %d failed %d\n", name, res.Correct, res.Attempted, res.Failed)
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			fatalf("%v", err)
		}
	}
	return status
}

// lastResult parses the result line a child printed last.
func lastResult(stdout []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

func appendRecord(path string, rec record) error {
	js, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(js, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readRecords reads a file of JSON lines written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareFiles prints the paired comparison of two run sets and returns
// the exit status: 1 when any metric regressed.
func compareFiles(parentPath, changePath string) int {
	parent, err := readRecords(parentPath)
	if err != nil {
		fatalf("%v", err)
	}
	change, err := readRecords(changePath)
	if err != nil {
		fatalf("%v", err)
	}
	if compareRuns(os.Stdout, parent, change) {
		return 1
	}
	return 0
}
