package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the 0 allocs/ref contract: functions marked
// //repro:hotpath, and every same-module function statically reachable
// from them, must not contain heap-allocating constructs.
//
// Flagged: fmt calls; non-constant string concatenation and
// string<->[]byte/[]rune conversions; map writes; append that doesn't
// follow the self-append amortized-buffer idiom (x = append(x, ...));
// capturing closures; go statements; defer inside a loop; value-to-
// interface boxing at calls/assignments/returns; and make/new/&T{}/
// slice/map literals that escape per the heuristic in escape.go.
//
// The same walk enforces the observability rules of DESIGN.md §8 and
// §10, which hold even where no allocation can be proved: hot paths
// publish through pre-registered obs cells held by value, so a call
// into the offPath table (registry methods, obs.NewRegistry,
// Histogram.Snapshot, every rec call but Recorder.Emit and
// Recorder.Stamp) and a map lookup that fetches a metric cell are
// flagged too.
//
// Deliberately NOT flagged: value composite literals (T{} is a register/
// stack construct), non-escaping constant-size make, non-capturing
// closures, constant expressions, and anything inside a panic(...)
// argument (assertion paths are performance-exempt by definition).
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags heap-allocating constructs reachable from //repro:hotpath roots",
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
			checkCall(prog, fi, node, stack, blessed, report)
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(typeOf(pkg, node)) && !isConstExpr(pkg, node) {
				report(node.OpPos, "string concatenation allocates")
			}
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
			checkAssignBoxing(pkg, node, report)
		case *ast.IndexExpr:
			if t := typeOf(pkg, node.X); isMapType(t) && isObsCellPtr(t.Underlying().(*types.Map).Elem(), prog.ModPath+"/internal/obs") {
				report(node.Pos(), "metric cell fetched through a map on the hot path: hold the cell by value")
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(node.X).(*ast.IndexExpr); ok && isMapType(typeOf(pkg, idx.X)) {
				report(idx.Lbrack, "map write may allocate (grow/insert)")
			}
		case *ast.ReturnStmt:
			checkReturnBoxing(pkg, fi, node, report)
		case *ast.FuncLit:
			if capt := capturedVar(pkg, fi, node); capt != "" {
				report(node.Pos(), "closure captures "+capt+" and allocates")
			}
		case *ast.CompositeLit, *ast.UnaryExpr:
			checkAllocExpr(pkg, fi, n, stack, report)
		}
		return true
	})
	return diags
}

// checkCall handles the call-shaped rules: fmt, the offPath table,
// conversions, append discipline, make/new allocation, and argument
// boxing.
func checkCall(prog *Program, fi *FuncInfo, call *ast.CallExpr, stack []ast.Node, blessed map[*ast.CallExpr]bool, report func(token.Pos, string)) {
	pkg := fi.Pkg
	if isConversion(pkg, call) {
		checkConversion(pkg, call, report)
		return
	}
	switch builtinName(pkg, call) {
	case "append":
		if !blessed[call] {
			report(call.Pos(), "append outside the self-append idiom (x = append(x, ...)) allocates")
		}
		return
	case "make", "new":
		checkMakeNew(pkg, fi, call, stack, report)
		return
	case "":
		// not a builtin: resolved call below
	default:
		return // len/cap/copy/panic/delete/clear etc.
	}
	if callee := calleeOf(pkg, call); callee != nil && callee.Pkg() != nil {
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
	checkArgBoxing(pkg, call, report)
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

// checkConversion flags string<->byte/rune-slice conversions, which
// copy into fresh storage unless constant-folded.
func checkConversion(pkg *Package, call *ast.CallExpr, report func(token.Pos, string)) {
	if len(call.Args) != 1 || isConstExpr(pkg, call) {
		return
	}
	dst := typeOf(pkg, call.Fun)
	src := typeOf(pkg, call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if (isStringType(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStringType(src)) {
		report(call.Pos(), "string conversion allocates a copy")
	}
}

// checkAllocExpr flags the allocating expressions (make, new, &T{},
// non-empty slice literals, map literals) that escape the frame.
func checkAllocExpr(pkg *Package, fi *FuncInfo, n ast.Node, stack []ast.Node, report func(token.Pos, string)) {
	var expr ast.Expr
	var what string
	switch node := n.(type) {
	case *ast.UnaryExpr:
		if node.Op != token.AND {
			return
		}
		if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); !ok {
			return
		}
		expr, what = node, "&composite literal"
	case *ast.CompositeLit:
		t := typeOf(pkg, node)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			if len(node.Elts) == 0 {
				return // zero-length slice literal does not allocate
			}
			expr, what = node, "slice literal"
		case *types.Map:
			report(node.Pos(), "map literal allocates")
			return
		default:
			return // value struct/array literal: not an allocation
		}
		// &T{} is reported by the UnaryExpr case; don't double-report.
		if len(stack) > 0 {
			if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
				return
			}
		}
	default:
		return
	}
	if esc, why := escapesAt(pkg, fi, expr, stack); esc {
		report(expr.Pos(), what+" escapes ("+why+") and allocates")
	}
}

// checkMakeNew is wired from the inspect loop via CallExpr handling:
// make(map/chan) and variable-size make always hit the heap; fixed-size
// make/new only when they escape.
func checkMakeNew(pkg *Package, fi *FuncInfo, call *ast.CallExpr, stack []ast.Node, report func(token.Pos, string)) {
	switch builtinName(pkg, call) {
	case "make":
		t := typeOf(pkg, call)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map, *types.Chan:
			report(call.Pos(), "make("+t.String()+") allocates")
			return
		}
		for _, arg := range call.Args[1:] {
			if !isConstExpr(pkg, arg) {
				report(call.Pos(), "make with non-constant size allocates")
				return
			}
		}
		if esc, why := escapesAt(pkg, fi, call, stack); esc {
			report(call.Pos(), "make escapes ("+why+") and allocates")
		}
	case "new":
		if esc, why := escapesAt(pkg, fi, call, stack); esc {
			report(call.Pos(), "new escapes ("+why+") and allocates")
		}
	}
}

// checkArgBoxing flags concrete non-pointer values passed to interface
// parameters: the conversion boxes onto the heap.
func checkArgBoxing(pkg *Package, call *ast.CallExpr, report func(token.Pos, string)) {
	sigT := typeOf(pkg, call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through unboxed
			}
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(pkg, arg, pt) {
			report(arg.Pos(), "value boxed into interface argument allocates")
		}
	}
}

// checkAssignBoxing flags concrete values assigned to interface-typed
// destinations.
func checkAssignBoxing(pkg *Package, as *ast.AssignStmt, report func(token.Pos, string)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		dst := typeOf(pkg, as.Lhs[i])
		if boxes(pkg, as.Rhs[i], dst) {
			report(as.Rhs[i].Pos(), "value boxed into interface on assignment allocates")
		}
	}
}

// checkReturnBoxing flags concrete values returned as interface results.
func checkReturnBoxing(pkg *Package, fi *FuncInfo, ret *ast.ReturnStmt, report func(token.Pos, string)) {
	sig := fi.Sig()
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		if boxes(pkg, res, sig.Results().At(i).Type()) {
			report(res.Pos(), "value boxed into interface result allocates")
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst
// heap-boxes: dst is an interface, expr's type is concrete and not
// pointer-shaped, and expr is neither nil nor a constant (the compiler
// statically allocates constant conversions).
func boxes(pkg *Package, expr ast.Expr, dst types.Type) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Value != nil || tv.IsNil() {
		return false
	}
	src := tv.Type
	if src == nil || types.IsInterface(src) {
		return false
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the iface word, no box
	}
	return true
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

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isConstExpr reports whether the expression folded to a constant.
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}
