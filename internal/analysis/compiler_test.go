package analysis

import (
	"path/filepath"
	"testing"
)

// TestParseCompilerOutput pins the -m line grammar: heap facts and
// inlined call sites are kept, other notes are skipped, and a line
// that does not parse is an error rather than a silently clean tree.
func TestParseCompilerOutput(t *testing.T) {
	dir := t.TempDir()
	out := "# repro/x\n" +
		"x/a.go:3:6: can inline f\n" +
		"x/a.go:9:14: inlining call to dram.(*DRAM).page\n" +
		"x/a.go:9:14: make([]byte, 4096) escapes to heap\n" +
		"x/a.go:12:6: moved to heap: tmp\n" +
		"x/a.go:15:7: v does not escape\n" +
		"<autogenerated>:1: inlining call to Direction.String\n"
	f := &heapFacts{escapes: map[srcPos][]string{}, inlined: map[srcPos]bool{}, byFile: map[string][]srcPos{}}
	if err := f.parse(dir, []byte(out)); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "x/a.go")
	if got := f.escapes[srcPos{file, 9, 14}]; len(got) != 1 || got[0] != "make([]byte, 4096) escapes to heap" {
		t.Errorf("escape at 9:14 = %q", got)
	}
	if got := f.escapes[srcPos{file, 12, 6}]; len(got) != 1 || got[0] != "moved to heap: tmp" {
		t.Errorf("escape at 12:6 = %q", got)
	}
	if len(f.escapes) != 2 || len(f.byFile[file]) != 2 {
		t.Errorf("want 2 escapes in %s, got %v", file, f.escapes)
	}
	if !f.inlined[srcPos{file, 9, 14}] {
		t.Error("inlined call site 9:14 not recorded")
	}
	if err := f.parse(dir, []byte("go: warning: something unexpected\n")); err == nil {
		t.Error("an unparsed line must be an error")
	}
}
