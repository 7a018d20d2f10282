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
		{"-engine", "no-such-engine"},
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
	// The passive attacks are survey -only E4,E9,E13,E15, not an attacklab flag.
	if stdout, stderr, code := cli("-only", "e4"); code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -only") {
		t.Errorf("-only e4: code=%d stdout=%q stderr=%q, want an unknown-flag exit 2", code, stdout, stderr)
	}
	if stdout, stderr, code := cli(); code != 2 || stdout != "" || !strings.Contains(stderr, "-engine") {
		t.Errorf("no arguments: code=%d stdout=%q stderr=%q, want usage naming -engine and exit 2", code, stdout, stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	stdout, stderr, code := cli("-h")
	if code != 0 || stdout != "" || !strings.Contains(stderr, "-engine") {
		t.Errorf("-h: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}
