package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the 0 allocs/ref contract: functions marked
// //repro:hotpath, and every same-module function statically reachable
// from them, must not allocate on the heap.
//
// The allocation facts come from the compiler: whatever its escape
// analysis moves to the heap (-gcflags=-m "escapes to heap" and "moved
// to heap" lines, see compiler.go) inside a reachable function is
// flagged. On top of that, the AST rules catch what escape analysis
// does not report: fmt calls (they format into fresh storage inside
// fmt), map writes, append that doesn't follow the self-append
// amortized-buffer idiom (x = append(x, ...)), go statements, and
// defer inside a loop.
//
// The same walk enforces the observability rules of DESIGN.md §8 and
// §10, which hold even where no allocation can be proved: hot paths
// publish through pre-registered obs cells held by value, so a call
// into the offPath table (registry methods, obs.NewRegistry,
// Histogram.Snapshot, every rec call but Recorder.Emit and
// Recorder.Stamp) and a map lookup that fetches a metric cell are
// flagged too.
//
// Deliberately NOT flagged: anything inside a panic(...) argument
// (assertion paths are performance-exempt by definition), and two
// compiler reports that allocate nothing: a constant converted to an
// interface (it points at read-only data) and a func literal that
// captures nothing (a static funcval).
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags heap allocations reachable from //repro:hotpath roots",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, r := range prog.reachableFrom(prog.markers.roots(contractHotpath)) {
		diags = append(diags, checkAllocFree(prog, r)...)
	}
	return diags
}

func checkAllocFree(prog *Program, r reached) []Diagnostic {
	var diags []Diagnostic
	fi, pkg := r.fn, r.fn.Pkg
	via := viaClause(prog, r)
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(pos),
			Analyzer: "hotpathalloc",
			Message:  msg + via,
		})
	}

	// Pre-pass: bless self-append statements (x = append(x, ...)), the
	// amortized-buffer idiom that is allocation-free in steady state.
	blessed := make(map[*ast.CallExpr]bool)
	ast.Inspect(fi.Body(), func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || builtinName(pkg, call) != "append" || len(call.Args) == 0 {
			return true
		}
		if types.ExprString(as.Lhs[0]) == types.ExprString(call.Args[0]) {
			blessed[call] = true
		}
		return true
	})

	inspectShallow(fi.Body(), func(n ast.Node, stack []ast.Node) bool {
		if inPanicArg(pkg, stack) {
			return true // assertion path: exempt, but keep walking for nested panics
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			checkCall(prog, pkg, node, blessed, report)
		case *ast.GoStmt:
			report(node.Go, "go statement allocates a goroutine")
		case *ast.DeferStmt:
			if enclosedInLoop(stack) {
				report(node.Defer, "defer inside a loop allocates per iteration")
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(typeOf(pkg, idx.X)) {
					report(idx.Lbrack, "map write may allocate (grow/insert)")
				}
			}
		case *ast.IndexExpr:
			if t := typeOf(pkg, node.X); isMapType(t) && isObsCellPtr(t.Underlying().(*types.Map).Elem(), prog.ModPath+"/internal/obs") {
				report(node.Pos(), "metric cell fetched through a map on the hot path: hold the cell by value")
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(node.X).(*ast.IndexExpr); ok && isMapType(typeOf(pkg, idx.X)) {
				report(idx.Lbrack, "map write may allocate (grow/insert)")
			}
		}
		return true
	})
	checkEscapes(prog, fi, report)
	return diags
}

// checkEscapes reports the compiler's heap facts inside fi's own body
// (a nested literal is its own call-graph node, checked when reached).
// It drops the facts inside a panic argument, the two kinds that
// allocate nothing (a constant converted to an interface, a func
// literal that captures nothing), and those at a call site where the
// compiler inlined a module function: the callee's own compile reports
// the same allocation at its own line, where any //repro:allow for it
// sits.
func checkEscapes(prog *Program, fi *FuncInfo, report func(token.Pos, string)) {
	pkg := fi.Pkg
	tf := prog.Fset.File(fi.Pos())
	for _, at := range prog.heap.byFile[tf.Name()] {
		if at.line > tf.LineCount() {
			continue
		}
		pos := tf.LineStart(at.line) + token.Pos(at.col-1)
		path := pathTo(fi.Body(), pos)
		if path == nil || inPanicArg(pkg, path) {
			continue
		}
		suffix := ""
		switch n := path[len(path)-1].(type) {
		case *ast.FuncLit:
			capt := capturedVar(pkg, fi, n)
			if capt == "" {
				continue
			}
			suffix = " (captures " + capt + ")"
		case *ast.CallExpr:
			if callee := calleeOf(pkg, n); prog.heap.inlined[at] && callee != nil && callee.Pkg() != nil && prog.Local(callee.Pkg().Path()) {
				continue
			}
		case ast.Expr:
			if isConstExpr(pkg, n) {
				continue
			}
		}
		for _, msg := range prog.heap.escapes[at] {
			report(pos, msg+suffix)
		}
	}
}

// checkCall handles the call-shaped rules: fmt, the offPath table and
// append discipline.
func checkCall(prog *Program, pkg *Package, call *ast.CallExpr, blessed map[*ast.CallExpr]bool, report func(token.Pos, string)) {
	if builtinName(pkg, call) == "append" && !blessed[call] {
		report(call.Pos(), "append outside the self-append idiom (x = append(x, ...)) allocates")
	}
	callee := calleeOf(pkg, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	if callee.Pkg().Path() == "fmt" {
		report(call.Pos(), "call to fmt."+callee.Name()+" allocates (formats into fresh storage)")
		return
	}
	if rel, ok := strings.CutPrefix(callee.Pkg().Path(), prog.ModPath+"/"); ok {
		if msg := offPathMessage(rel, receiverTypeName(callee), callee.Name()); msg != "" {
			report(call.Pos(), msg)
		}
	}
}

// offPath lists the setup- and reader-side obs and flight-recorder APIs
// that hot-path code must not call, keyed by package (relative to the
// module), receiver type name ("" for plain functions) and callee name.
// "*" matches any receiver or name; an empty message marks an allowed
// callee. A %s in a message stands for the callee name.
var offPath = map[[3]string]string{
	{"internal/obs", "Registry", "*"}:         "obs.Registry.%s on the hot path: publishers must hold cells by value, registered at setup",
	{"internal/obs", "Histogram", "Snapshot"}: "Histogram.Snapshot on the hot path: snapshots are reader-side",
	{"internal/obs", "", "NewRegistry"}:       "obs.NewRegistry on the hot path: registries are built at setup",
	{"internal/obs/rec", "Recorder", "Emit"}:  "",
	{"internal/obs/rec", "Recorder", "Stamp"}: "",
	{"internal/obs/rec", "Recorder", "*"}:     "rec.Recorder.%s on the hot path: only Emit and Stamp are writer-side; seal and read after the run",
	{"internal/obs/rec", "*", "*"}:            "rec.%s on the hot path: recorder setup and export are off-path; rings are built before the run",
}

// offPathMessage returns the diagnostic for a call into the offPath
// table, most specific key first, or "" when the callee is allowed.
func offPathMessage(pkg, recv, name string) string {
	for _, k := range [][3]string{{pkg, recv, name}, {pkg, recv, "*"}, {pkg, "*", "*"}} {
		if msg, ok := offPath[k]; ok {
			return strings.ReplaceAll(msg, "%s", name)
		}
	}
	return ""
}

// receiverTypeName returns the bare receiver type name of a method
// ("Registry" for *obs.Registry), or "" for plain functions.
func receiverTypeName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isObsCellPtr reports whether t is *obs.Counter, *obs.Gauge, or
// *obs.Histogram.
func isObsCellPtr(t types.Type, obsPath string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != obsPath {
		return false
	}
	switch named.Obj().Name() {
	case "Counter", "Gauge", "Histogram":
		return true
	}
	return false
}

// capturedVar returns the name of a variable the closure captures from
// its enclosing function, or "" for a non-capturing (static) closure.
func capturedVar(pkg *Package, fi *FuncInfo, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		// Captured: declared in the enclosing function but outside the
		// literal itself.
		if v.Pos() >= fi.Pos() && v.Pos() <= fi.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			captured = v.Name()
		}
		return true
	})
	return captured
}

// isConstExpr reports whether the expression folded to a constant.
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}
