package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
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
		{"-workload", "no-such-workload"},
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

func TestUnknownWorkloadSuggestsList(t *testing.T) {
	_, stderr, _ := cli("-workload", "no-such-workload")
	if !strings.Contains(stderr, "-list") {
		t.Errorf("stderr does not point at -list: %q", stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	stdout, stderr, code := cli("-h")
	if code != 0 || stdout != "" || !strings.Contains(stderr, "-engine") {
		t.Errorf("-h: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

// wantCycles runs soc.Baselines.Compare for engine on the source cfg
// describes and returns the two cycle lines bussim must print for it.
func wantCycles(t *testing.T, engine, workload string, cfg trace.Config) []string {
	t.Helper()
	eng, err := core.MustEntry(engine).Build()
	if err != nil {
		t.Fatal(err)
	}
	base, with, err := soc.Baselines{}.Compare(soc.DefaultConfig(), eng, trace.Sources[workload](cfg))
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		fmt.Sprintf("baseline   : %d cycles", base.Cycles),
		fmt.Sprintf("with engine: %d cycles", with.Cycles),
	}
}

// Without knob flags, a workload runs its core.WorkloadProfile — the mix
// the experiment suite and sweep measure under the same name.
func TestWorkloadRunsItsProfile(t *testing.T) {
	stdout, stderr, code := cli("-engine", "xom", "-workload", "pointer-chase", "-refs", "3000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cfg, _ := core.WorkloadProfile("pointer-chase", 3000)
	cfg.Seed = 1
	for _, line := range wantCycles(t, "xom", "pointer-chase", cfg) {
		if !strings.Contains(stdout, line) {
			t.Errorf("stdout lacks %q:\n%s", line, stdout)
		}
	}
}

// A knob flag overrides only its own knob of the profile.
func TestKnobFlagsOverrideProfile(t *testing.T) {
	stdout, stderr, code := cli("-engine", "gilmont", "-workload", "code-only",
		"-jump", "0.1", "-codesize", "8192", "-refs", "2000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cfg, _ := core.WorkloadProfile("code-only", 2000)
	cfg.Seed, cfg.JumpRate, cfg.CodeSize = 1, 0.1, 8192
	for _, line := range wantCycles(t, "gilmont", "code-only", cfg) {
		if !strings.Contains(stdout, line) {
			t.Errorf("stdout lacks %q:\n%s", line, stdout)
		}
	}
}
