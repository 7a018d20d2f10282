package analysis

import (
	"bytes"
	"fmt"
	"maps"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The compiler pass: hotpathalloc takes its allocation facts from the
// Go compiler's own escape analysis (-gcflags=-m) instead of guessing
// them from syntax. The text -m output is replayed from the build
// cache, so a warm run costs little more than a cache lookup per
// package.

// srcPos is a compiler-reported position, keyed the way the -m output
// prints it.
type srcPos struct {
	file      string
	line, col int
}

// heapFacts is what the compiler pass learned about the compiled
// packages.
type heapFacts struct {
	// escapes maps a position to the compiler's heap message there
	// ("moved to heap: tmp", "make([]byte, n) escapes to heap").
	escapes map[srcPos][]string
	// inlined holds the call sites where the compiler inlined a call.
	// An allocation in an inlined callee is reported at the call site
	// as well as at its own line in the callee's package.
	inlined map[srcPos]bool
	// byFile lists the escape positions per file, for the join with
	// function bodies.
	byFile map[string][]srcPos
}

// mLine matches one "file:line:col: message" line of -m output. The
// column is absent on compiler-generated wrappers ("<autogenerated>:1:").
var mLine = regexp.MustCompile(`^(.+?):(\d+)(?::(\d+))?: (.*)$`)

// compileEscapes runs the compiler with -m over every package that
// holds a function reachable from a //repro:hotpath root, once per
// module (a nested module such as benchmark/ is compiled from its own
// go.mod), and parses the heap facts. go list -export compiles without
// linking. Any failure (no go command, a build error, a line that does
// not parse) is an error: the pass never reports a clean tree it did
// not check.
func (p *Program) compileEscapes() (*heapFacts, error) {
	facts := &heapFacts{
		escapes: make(map[srcPos][]string),
		inlined: make(map[srcPos]bool),
		byFile:  make(map[string][]srcPos),
	}
	byModule := make(map[string][]string)
	seen := make(map[*Package]bool)
	for _, r := range p.reachableFrom(p.markers.roots(contractHotpath)) {
		if pkg := r.fn.Pkg; !seen[pkg] {
			seen[pkg] = true
			mod, _, err := findModule(pkg.Dir)
			if err != nil {
				return nil, err
			}
			byModule[mod] = append(byModule[mod], pkg.Dir)
		}
	}
	for _, mod := range slices.Sorted(maps.Keys(byModule)) {
		out, err := goList(mod, append([]string{"-gcflags=-m"}, byModule[mod]...)...)
		if err != nil {
			// The -m notes of the packages that did compile bury the
			// error: rerun without them so it shows alone.
			quiet, _ := goList(mod, byModule[mod]...)
			return nil, fmt.Errorf("compiler pass in %s: %v\n%s", mod, err, bytes.TrimSpace(quiet))
		}
		if err := facts.parse(mod, out); err != nil {
			return nil, fmt.Errorf("compiler pass in %s: %w", mod, err)
		}
	}
	return facts, nil
}

// goList compiles the packages in the module at dir, without linking,
// and returns the compiler output. -trimpath=false keeps real file
// paths in it even when GOFLAGS trims them.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-trimpath=false", "-f", ""}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.Bytes(), err
}

// parse reads -m output whose relative paths are relative to dir.
func (f *heapFacts) parse(dir string, out []byte) error {
	for line := range strings.SplitSeq(string(out), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue // package header
		}
		m := mLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("unparsed -m output line %q", line)
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3]) // 0 when absent
		pos, msg := srcPos{file, ln, col}, m[4]
		switch {
		case strings.HasPrefix(msg, "inlining call to "):
			f.inlined[pos] = true
		case strings.HasSuffix(msg, " escapes to heap") || strings.HasPrefix(msg, "moved to heap: "):
			if f.escapes[pos] == nil {
				f.byFile[file] = append(f.byFile[file], pos)
			}
			f.escapes[pos] = append(f.escapes[pos], msg)
		}
	}
	return nil
}
