package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package: syntax plus types, the
// unit the analyzers inspect.
type Package struct {
	// Path is the import path ("repro/internal/sim/soc").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files is the parsed syntax (non-test files only).
	Files []*ast.File
	// Types and Info are the type-checker's output.
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded module tree: every requested package plus every
// module-local dependency, type-checked against one shared FileSet so
// cross-package analysis (call graphs, marker propagation) is possible.
// reprolint builds one Program per invocation.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	ModDir  string
	// Pkgs holds the loaded module packages in dependency order
	// (imports before importers).
	Pkgs []*Package

	byPath map[string]*Package
	std    types.Importer
	// loading guards against import cycles during recursive loads.
	loading map[string]bool

	markers *markerSet
	graph   *callGraph
	// heap holds the compiler's escape facts, set by Analyze before
	// HotPathAlloc runs.
	heap *heapFacts
}

// Load parses and type-checks the module packages matched by patterns.
// Patterns are directory paths relative to dir; a trailing "/..."
// expands recursively (skipping testdata, hidden and underscore
// directories — explicit paths may still point into testdata, which is
// how fixture packages load). Module-local imports of matched packages
// are loaded transitively; standard-library imports come from export
// data (or from source when no export data is available).
func Load(dir string, patterns ...string) (*Program, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		ModPath: modPath,
		ModDir:  modDir,
		byPath:  make(map[string]*Package),
		loading: make(map[string]bool),
	}
	prog.std = newStdImporter(prog.Fset)

	dirs, err := expandPatterns(absDir, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}
	for _, d := range dirs {
		rel, err := filepath.Rel(modDir, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", d, modDir)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		if _, err := prog.loadLocal(importPath); err != nil {
			return nil, err
		}
	}
	prog.markers = collectMarkers(prog)
	prog.graph = buildCallGraph(prog)
	return prog, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves CLI-style package patterns to directories.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, p := range patterns {
		recursive := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
			if p == "" {
				p = "."
			}
		}
		root := p
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, p)
		}
		if !recursive {
			if hasGoFiles(root) {
				add(root)
			} else {
				return nil, fmt.Errorf("analysis: no Go files in %s", root)
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loadLocal parses and type-checks one module package (and, through the
// importer, its module-local dependencies), memoized by import path.
func (p *Program) loadLocal(importPath string) (*Package, error) {
	if pkg, ok := p.byPath[importPath]; ok {
		return pkg, nil
	}
	if p.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	p.loading[importPath] = true
	defer delete(p.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, p.ModPath), "/")
	dir := filepath.Join(p.ModDir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: cannot read package %s: %w", importPath, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := types.Config{Importer: progImporter{p}}
	tpkg, err := cfg.Check(importPath, p.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	p.byPath[importPath] = pkg
	p.Pkgs = append(p.Pkgs, pkg)
	return pkg, nil
}

// Local reports whether importPath names a package inside the module.
func (p *Program) Local(importPath string) bool {
	return importPath == p.ModPath || strings.HasPrefix(importPath, p.ModPath+"/")
}

// progImporter routes module-local imports through the Program's own
// loader and everything else to the standard-library importer.
type progImporter struct{ prog *Program }

func (i progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if i.prog.Local(path) {
		pkg, err := i.prog.loadLocal(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return i.prog.std.Import(path)
}

// newStdImporter picks the standard-library importer: compiled export
// data when available (fast), else type-checking from GOROOT source —
// the go/packages-free fallback that keeps the tool dependency-free.
func newStdImporter(fset *token.FileSet) types.Importer {
	gc := importer.Default()
	if _, err := gc.Import("fmt"); err == nil {
		return gc
	}
	return importer.ForCompiler(fset, "source", nil)
}
