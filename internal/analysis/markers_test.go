package analysis

import (
	"strings"
	"testing"
)

// TestMarkerGrammar pins the framework-level diagnostics: unknown
// directives (the retired //repro:shardpure among them), misplaced
// markers, reason-less allows, and stale allows each produce a
// file:line finding.
func TestMarkerGrammar(t *testing.T) {
	prog, err := Load(".", "./testdata/src/markersfix")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}

	expect := map[int]string{
		8:  "unknown directive //repro:frobnicate",
		12: "//repro:hotpath must be on a function's doc comment or before the package clause",
		16: "//repro:allow requires a reason",
		20: "stale //repro:allow",
		26: "unknown directive //repro:shardpure",
	}
	var fixtureDiags []Diagnostic
	for _, d := range res.Diags {
		if strings.Contains(d.Pos.Filename, "markersfix") {
			fixtureDiags = append(fixtureDiags, d)
		}
	}
	if len(fixtureDiags) != len(expect) {
		t.Errorf("got %d diagnostics, want %d: %v", len(fixtureDiags), len(expect), fixtureDiags)
	}
	for _, d := range fixtureDiags {
		want, ok := expect[d.Pos.Line]
		if !ok {
			t.Errorf("unexpected diagnostic at line %d: %s", d.Pos.Line, d.Message)
			continue
		}
		if d.Analyzer != "markers" {
			t.Errorf("line %d: analyzer = %q, want markers", d.Pos.Line, d.Analyzer)
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("line %d: message %q does not contain %q", d.Pos.Line, d.Message, want)
		}
		delete(expect, d.Pos.Line)
	}
	for line, msg := range expect {
		t.Errorf("missing diagnostic at line %d (%s)", line, msg)
	}
	if len(res.Allowances) != 0 {
		t.Errorf("stale allow must not appear as a used allowance: %v", res.Allowances)
	}
}

// TestLoadErrors pins loader failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "./no/such/dir"); err == nil {
		t.Error("expected error for missing package dir")
	}
	if _, err := Load("/", "./..."); err == nil {
		t.Error("expected error outside any module")
	}
}
