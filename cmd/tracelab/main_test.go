package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
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

// The core claim: forensics over the event stream reproduce the attack
// schedule's accounting exactly, and the command says so and exits 0.
func TestForensicsCrossCheck(t *testing.T) {
	stdout, stderr, code := cli("-refs", "20000")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	for _, want := range []string{
		"inject@", "touch@", "verify@", "trap@", "latency",
		"cross-check: event-stream accounting matches attack.Schedule exactly",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stdout, "strikes injected") {
		t.Errorf("no strike summary:\n%s", stdout)
	}
}

// tracelab's printed forensics are pinned byte for byte: a refactor of
// the engines, the trace generators or the attack model that moves one
// strike, one latency or one cycle count changes a digest here.
func TestForensicsPinned(t *testing.T) {
	for auth, want := range map[string]string{
		"tree":     "840066a57976b510aa49da663980e31f48af45c5aa8e52091f2b4d84bf11037e",
		"ctree":    "12f588ca2cdb9fdcd01bd2964a67326539450bb2fee17dd931dc9e07d867a1bf",
		"flat-mac": "f42d27b5eda8a50b9f20e754918cfdb866372f6423a99118498ab68b44c42209",
	} {
		stdout, stderr, code := cli("-authtree", auth, "-attack", "16", "-refs", "12000")
		if code != 0 {
			t.Fatalf("%s: exited %d: %s", auth, code, stderr)
		}
		sum := sha256.Sum256([]byte(stdout))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: stdout digest %s, pinned %s:\n%s", auth, got, want, stdout)
		}
	}
}

// A confidentiality-only system detects nothing; the chains must show
// tampered lines crossing the bus unverified, and the cross-check must
// still hold (zero detections on both sides).
func TestUnauthenticatedSystemDetectsNothing(t *testing.T) {
	stdout, stderr, code := cli("-authtree", "none", "-refs", "12000")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "undetected") {
		t.Errorf("auth=none shows no undetected strikes:\n%s", stdout)
	}
	if strings.Contains(stdout, "MISMATCH") {
		t.Errorf("cross-check failed:\n%s", stdout)
	}
}

// -o round-trips through -check: the dump is a valid decodable trace.
func TestDumpAndCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.json")
	_, stderr, code := cli("-refs", "12000", "-o", path)
	if code != 0 {
		t.Fatalf("record run exited %d: %s", code, stderr)
	}
	stdout, stderr, code := cli("-check", path)
	if code != 0 {
		t.Fatalf("-check exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "valid, 1 streams") {
		t.Errorf("-check output: %q", stdout)
	}
	if !strings.Contains(stdout, "strike=") || !strings.Contains(stdout, "trap=") {
		t.Errorf("-check inventory missing attack kinds: %q", stdout)
	}
}

func TestCheckRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"ph":"B"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := cli("-check", path)
	if code == 0 {
		t.Errorf("garbage trace accepted: %q", stdout)
	}
	if !strings.Contains(stderr, "tracelab:") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestRejectsZeroAttackRate(t *testing.T) {
	stdout, stderr, code := cli("-attack", "0")
	if code == 0 {
		t.Error("-attack 0 exited 0")
	}
	if stdout != "" {
		t.Errorf("error run wrote stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "adversary") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	stdout, stderr, code := cli("-h")
	if code != 0 || stdout != "" || !strings.Contains(stderr, "-check") {
		t.Errorf("-h: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

// FuzzTracelabCheck drives -check, the trace-file parser at the CLI
// boundary, with arbitrary file contents: it must never panic, must
// exit 0 (valid) or 1 (rejected), and a 0 must say "valid" on stdout.
func FuzzTracelabCheck(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := cli("-check", path)
		switch code {
		case 0:
			if !strings.Contains(stdout, ": valid, ") {
				t.Errorf("exit 0 without a valid line: %q", stdout)
			}
		case 1:
			if !strings.Contains(stderr, "tracelab:") {
				t.Errorf("exit 1 without a diagnostic: %q", stderr)
			}
		default:
			t.Errorf("exit %d: stdout=%q stderr=%q", code, stdout, stderr)
		}
	})
}
