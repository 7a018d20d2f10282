package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the reprolint golden file")

// TestSeededRegressions is the acceptance gate for the analyzer suite:
// the demo fixture carries four injected violations (a fmt.Sprintf
// in a //repro:hotpath function, a time.Now() in an emitter, a
// metric-cell map lookup in a publisher, a stack array passed through
// an interface call) and each must produce a file:line diagnostic and
// a nonzero exit.
func TestSeededRegressions(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/src/demo"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"cmd/reprolint/testdata/src/demo/demo.go:22:", // fmt.Sprintf in HotRef
		"hotpathalloc: call to fmt.Sprintf allocates",
		"cmd/reprolint/testdata/src/demo/demo.go:27:", // time.Now in EmitRow
		"determinism: call to time.Now reads the wall clock",
		"cmd/reprolint/testdata/src/demo/demo.go:32:", // map lookup in Publish
		"hotpathalloc: metric cell fetched through a map",
		"cmd/reprolint/testdata/src/demo/demo.go:48:6: hotpathalloc: moved to heap: tmp", // Whiten
		"1 //repro:allow suppression(s) in effect",
		"steady-state writes hit existing keys (suppressed 1)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\noutput:\n%s", want, out)
		}
	}
}

// TestJSONGolden pins the -json schema against a golden file, the same
// idiom as internal/campaign/testdata. Refresh deliberately with
//
//	go test ./cmd/reprolint -run TestJSONGolden -update
func TestJSONGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./testdata/src/demo"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "reprolint.json.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-json output drifted from %s (refresh deliberately with -update):\ngot:\n%s\nwant:\n%s",
			golden, stdout.String(), want)
	}
}

// TestTimingOutput: -timing reports per-analyzer wall time, and the
// compiler pass's as its own row, on stderr only — stdout (and with it
// the -json golden schema) stays untouched.
func TestTimingOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-timing", "-C", "../../internal/crypto/ghash", "."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout must stay clean under -timing, got:\n%s", stdout.String())
	}
	errOut := stderr.String()
	for _, want := range []string{"compiler", "hotpathalloc", "determinism", "atomicdiscipline", "devirt", "total"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("timing output missing %q\nstderr:\n%s", want, errOut)
		}
	}
}

// TestCleanExit: a clean package yields exit 0 and empty text output.
func TestCleanExit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../../internal/crypto/ghash", "."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no output on a clean tree, got:\n%s", stdout.String())
	}
}

// TestUsageErrors: bad flags and unloadable patterns exit 2 with a
// message on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"./does/not/exist"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("run(%v): expected a message on stderr", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v): stdout must stay clean, got %q", args, stdout.String())
		}
	}
}

// TestHelpExitsZero: -h prints usage to stderr and exits 0, with
// nothing on stdout.
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "usage: reprolint") {
		t.Errorf("usage missing from stderr:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout must stay clean, got %q", stdout.String())
	}
}

// TestCompilerPassFailsClosed: when the compiler pass cannot run (here,
// no go command on PATH), reprolint exits 2 and names the failure; it
// never reports the tree clean.
func TestCompilerPassFailsClosed(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../../internal/crypto/ghash", "."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "compiler pass") {
		t.Errorf("stderr does not name the compiler pass:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout must stay clean, got %q", stdout.String())
	}
}
