package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture loads one fixture package from testdata/src, runs the
// given analyzers, and checks the diagnostics against the fixture's
// // want `regexp` comments: every want must be matched by exactly one
// diagnostic on its line, and every diagnostic must be wanted.
// Diagnostics outside the fixture directory (e.g. in real module
// packages the fixture imports) are ignored. The Result is returned
// for extra assertions (allowances, counts).
func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) *Result {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	prog, err := Load(".", "./"+filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	res, err := prog.Analyze(analyzers...)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", dir, err)
	}

	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	inFixture := func(filename string) bool {
		return strings.HasPrefix(filename, absDir+string(filepath.Separator))
	}

	wants := parseWants(t, absDir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments — harness would pass vacuously", fixture)
	}

	// Index fixture diagnostics by file:line.
	got := make(map[string][]string)
	for _, d := range res.Diags {
		if !inFixture(d.Pos.Filename) {
			continue
		}
		key := filepath.Base(d.Pos.Filename) + ":" + itoa(d.Pos.Line)
		got[key] = append(got[key], d.Analyzer+": "+d.Message)
	}

	for key, res := range wants {
		msgs := got[key]
		if len(msgs) != len(res) {
			t.Errorf("%s: want %d diagnostic(s) %v, got %d: %v", key, len(res), res, len(msgs), msgs)
			continue
		}
		used := make([]bool, len(msgs))
		for _, re := range res {
			found := false
			for i, msg := range msgs {
				if !used[i] && re.MatchString(msg) {
					used[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no diagnostic matching %q among %v", key, re, msgs)
			}
		}
	}
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic(s): %v", key, msgs)
		}
	}
	return res
}

var wantRE = regexp.MustCompile("`([^`]+)`")

// parseWants extracts want expectations per file:line. Multiple
// patterns on one line: // want `a` `b`.
func parseWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			key := e.Name() + ":" + itoa(i+1)
			for _, m := range wantRE.FindAllStringSubmatch(line[idx+len("// want "):], -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestHotPathAllocFixture(t *testing.T) {
	res := runFixture(t, "hotfix", HotPathAlloc)
	// The //repro:allow in Allowed must be exercised exactly once.
	found := false
	for _, a := range res.Allowances {
		if strings.Contains(a.Reason, "steady-state writes") {
			found = true
			if a.Count != 1 {
				t.Errorf("allowance count = %d, want 1", a.Count)
			}
		}
	}
	if !found {
		t.Error("expected the steady-state-writes allowance to be used")
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determfix", Determinism)
}

// TestRecDisciplineFixture and TestMetricsDisciplineFixture check the
// offPath and metric-cell rules, which run inside HotPathAlloc's walk.
func TestRecDisciplineFixture(t *testing.T) {
	runFixture(t, "recfix", HotPathAlloc)
}

func TestMetricsDisciplineFixture(t *testing.T) {
	runFixture(t, "metricsfix", HotPathAlloc)
}

// TestDeterminismShardFixture runs Determinism over the campaign-task
// cases (shared writes, host parallelism, goroutine identity) and also
// runs Devirt: shardfix carries the devirtualization cases (interface
// dispatch with two implementers, func value in a struct field, method
// value, reflect blind spot).
func TestDeterminismShardFixture(t *testing.T) {
	runFixture(t, "shardfix", Determinism, Devirt)
}

func TestAtomicDisciplineFixture(t *testing.T) {
	runFixture(t, "atomfix", AtomicDiscipline)
}

// TestUnmarkedVerifierImplementationFails is the regression pin for
// interface-edge propagation into real module interfaces: a dirty
// edu.Verifier implementation with no marker of its own must be
// flagged when a marked caller dispatches through the interface.
func TestUnmarkedVerifierImplementationFails(t *testing.T) {
	res := runFixture(t, "devirtfix", HotPathAlloc)
	found := false
	for _, d := range res.Diags {
		if strings.Contains(d.Pos.Filename, "devirtfix") {
			found = true
		}
	}
	if !found {
		t.Error("unmarked edu.Verifier implementation produced no diagnostics — interface edges regressed")
	}
}
