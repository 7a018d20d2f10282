package main

import (
	"bytes"
	"strings"
	"testing"
)

// cli runs the command in-process and returns stdout, stderr and the
// exit code main would pass to os.Exit.
func cli(args ...string) (string, string, int) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestErrorPathsToStderr(t *testing.T) {
	for _, tc := range [][]string{
		{"-no-such-flag"},
		{"-only", "E99"},
		{"-only", "E1,E99"},
	} {
		stdout, stderr, code := cli(tc...)
		if code == 0 {
			t.Errorf("%v exited 0", tc)
		}
		if stdout != "" {
			t.Errorf("%v wrote error to stdout: %q", tc, stdout)
		}
		if stderr == "" {
			t.Errorf("%v produced no stderr diagnostics", tc)
		}
	}
}

func TestUnknownExperimentNamesRange(t *testing.T) {
	_, stderr, _ := cli("-only", "E1,E99")
	if !strings.Contains(stderr, "E99") || !strings.Contains(stderr, "E1..E22") {
		t.Errorf("stderr does not name the bad experiment and the range: %q", stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	stdout, stderr, code := cli("-h")
	if code != 0 || stdout != "" || !strings.Contains(stderr, "-only") {
		t.Errorf("-h: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

// -only takes a comma list; the tables print in the order given.
func TestOnlyList(t *testing.T) {
	stdout, stderr, code := cli("-only", "e13, E4", "-refs", "2000", "-jobs", "2")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	e13, e4 := strings.Index(stdout, "== E13:"), strings.Index(stdout, "== E4:")
	if e13 < 0 || e4 < 0 || e13 > e4 {
		t.Errorf("want E13 then E4 tables:\n%s", stdout)
	}
}
