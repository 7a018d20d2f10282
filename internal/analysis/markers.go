package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Marker grammar (see DESIGN.md §9):
//
//	//repro:hotpath        — on a function's doc comment: the function and
//	                         every same-module function it can reach —
//	                         including through interface dispatch and
//	                         function values (the devirtualized graph) —
//	                         must be allocation-free. Before the package
//	                         clause: applies to every function in that
//	                         file.
//	//repro:deterministic  — same placement rules; the reachable code must
//	                         not consult wall-clock time, global RNG, the
//	                         environment, host parallelism or goroutine
//	                         identity, write package-level state, or
//	                         range over a map unsorted. This is the static
//	                         form of the -jobs 1 ≡ -jobs N contract: a
//	                         task's result may depend only on its inputs.
//	//repro:allow <reason> — on (or directly above) a flagged line:
//	                         suppresses diagnostics on that line. The
//	                         reason is mandatory; the driver counts and
//	                         reports every allowance it uses, and a stale
//	                         allowance (suppressing nothing) is itself a
//	                         diagnostic.
const (
	markerPrefix      = "//repro:"
	markerHotpath     = "hotpath"
	markerDeterminism = "deterministic"
	markerAllow       = "allow"
)

// contract names one of the propagating marker contracts.
type contract int

const (
	contractHotpath contract = iota
	contractDeterministic
)

// FuncInfo is the per-function record the analyzers share. It covers
// both declared functions (Decl != nil, Obj != nil) and function
// literals (Lit != nil): a literal stored in a struct field or passed
// as a callback is a call-graph node of its own, reached through the
// function-value flow edges rather than lexical containment.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package

	Hotpath       bool
	Deterministic bool
}

// Body returns the function's body block (nil for bodyless decls).
func (fi *FuncInfo) Body() *ast.BlockStmt {
	if fi.Lit != nil {
		return fi.Lit.Body
	}
	if fi.Decl != nil {
		return fi.Decl.Body
	}
	return nil
}

// Pos and End bound the whole function (declaration or literal), used
// by the capture analysis to classify variable origins.
func (fi *FuncInfo) Pos() token.Pos {
	if fi.Lit != nil {
		return fi.Lit.Pos()
	}
	return fi.Decl.Pos()
}

func (fi *FuncInfo) End() token.Pos {
	if fi.Lit != nil {
		return fi.Lit.End()
	}
	return fi.Decl.End()
}

// marked reports whether the contract's marker is set on this function.
func (fi *FuncInfo) marked(c contract) bool {
	switch c {
	case contractHotpath:
		return fi.Hotpath
	default:
		return fi.Deterministic
	}
}

// allowMark is one //repro:allow comment. It suppresses diagnostics on
// its own line and on the line directly below (so it works both as a
// trailing comment and as a comment above the statement).
type allowMark struct {
	Pos    token.Position
	Reason string
	Used   int
}

type markerSet struct {
	funcs map[*types.Func]*FuncInfo
	// decls indexes every function declaration, marked or not, for
	// call-graph body lookup.
	decls map[*types.Func]*FuncInfo
	// lits indexes every function literal as its own call-graph node.
	lits map[*ast.FuncLit]*FuncInfo
	// order of all FuncInfos in file/position order, for deterministic
	// whole-program passes.
	all []*FuncInfo
	// allows maps filename → line → mark.
	allows map[string]map[int]*allowMark
	// allowOrder keeps allows in file/line order for stable reporting.
	order []*allowMark
	// diags holds marker-grammar problems (unknown directive, missing
	// reason, misplaced marker).
	diags []Diagnostic
}

func collectMarkers(prog *Program) *markerSet {
	ms := &markerSet{
		funcs:  make(map[*types.Func]*FuncInfo),
		decls:  make(map[*types.Func]*FuncInfo),
		lits:   make(map[*ast.FuncLit]*FuncInfo),
		allows: make(map[string]map[int]*allowMark),
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ms.collectFile(prog, pkg, file)
		}
	}
	return ms
}

func (ms *markerSet) collectFile(prog *Program, pkg *Package, file *ast.File) {
	// Index doc comments so directives can be classified by placement.
	funcDocs := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			funcDocs[fd.Doc] = fd
		}
	}

	var fileHot, fileDet bool
	for _, group := range file.Comments {
		fileLevel := group.End() < file.Package
		target := funcDocs[group]
		for _, c := range group.List {
			directive, arg, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			pos := prog.Fset.Position(c.Pos())
			switch directive {
			case markerHotpath, markerDeterminism:
				switch {
				case target != nil:
					fi := ms.funcInfo(pkg, target)
					fi.setMarker(directive)
				case fileLevel:
					if directive == markerHotpath {
						fileHot = true
					} else {
						fileDet = true
					}
				default:
					ms.diags = append(ms.diags, Diagnostic{
						Pos:      pos,
						Analyzer: "markers",
						Message:  "//repro:" + directive + " must be on a function's doc comment or before the package clause",
					})
				}
			case markerAllow:
				if arg == "" {
					ms.diags = append(ms.diags, Diagnostic{
						Pos:      pos,
						Analyzer: "markers",
						Message:  "//repro:allow requires a reason",
					})
					continue
				}
				mark := &allowMark{Pos: pos, Reason: arg}
				byLine := ms.allows[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*allowMark)
					ms.allows[pos.Filename] = byLine
				}
				byLine[pos.Line] = mark
				ms.order = append(ms.order, mark)
			default:
				ms.diags = append(ms.diags, Diagnostic{
					Pos:      pos,
					Analyzer: "markers",
					Message:  "unknown directive //repro:" + directive,
				})
			}
		}
	}

	if fileHot || fileDet {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fi := ms.funcInfo(pkg, fd)
			fi.Hotpath = fi.Hotpath || fileHot
			fi.Deterministic = fi.Deterministic || fileDet
		}
	}

	// Register every declaration and every function literal for
	// call-graph lookup. Literals are their own nodes: one assigned to
	// a struct field in setup and invoked through the field on a marked
	// path must be checked even though no declaration names it.
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			ms.funcInfo(pkg, fd)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ms.litInfo(pkg, lit)
		}
		return true
	})
}

func (fi *FuncInfo) setMarker(directive string) {
	switch directive {
	case markerHotpath:
		fi.Hotpath = true
	case markerDeterminism:
		fi.Deterministic = true
	}
}

func (ms *markerSet) funcInfo(pkg *Package, decl *ast.FuncDecl) *FuncInfo {
	obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	if obj == nil {
		return &FuncInfo{Decl: decl, Pkg: pkg}
	}
	if fi, ok := ms.decls[obj]; ok {
		return fi
	}
	fi := &FuncInfo{Obj: obj, Decl: decl, Pkg: pkg}
	ms.decls[obj] = fi
	ms.funcs[obj] = fi
	ms.all = append(ms.all, fi)
	return fi
}

func (ms *markerSet) litInfo(pkg *Package, lit *ast.FuncLit) *FuncInfo {
	if fi, ok := ms.lits[lit]; ok {
		return fi
	}
	fi := &FuncInfo{Lit: lit, Pkg: pkg}
	ms.lits[lit] = fi
	ms.all = append(ms.all, fi)
	return fi
}

// parseDirective splits "//repro:word rest" into (word, rest, true).
func parseDirective(text string) (directive, arg string, ok bool) {
	rest, found := strings.CutPrefix(text, markerPrefix)
	if !found {
		return "", "", false
	}
	directive, arg, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(directive), strings.TrimSpace(arg), true
}

// allowFor returns the allowance covering a diagnostic at pos: a
// //repro:allow on the same line or on the line directly above.
func (ms *markerSet) allowFor(pos token.Position) *allowMark {
	byLine := ms.allows[pos.Filename]
	if byLine == nil {
		return nil
	}
	if m := byLine[pos.Line]; m != nil {
		return m
	}
	return byLine[pos.Line-1]
}

// roots returns the marked roots for one contract.
func (ms *markerSet) roots(c contract) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range ms.all {
		if fi.marked(c) {
			out = append(out, fi)
		}
	}
	return out
}
