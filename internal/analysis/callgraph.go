package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// callGraph is the devirtualized, whole-program call graph over module
// functions — declarations and function literals alike. Three edge
// sources: statically resolved calls; interface-method call sites
// resolved by class hierarchy analysis to every in-module concrete
// implementer (scope = loaded module packages only — an out-of-module
// implementation is invisible, which is sound for this repo because the
// contracts only bind module code); and function-value calls resolved
// through a flow-insensitive scan of every assignment into func-typed
// vars, fields and params. Calls through reflect cannot be resolved at
// all and are recorded as opaque sites, which the devirt analyzer turns
// into diagnostics rather than silence.
type callGraph struct {
	callees map[*FuncInfo][]*FuncInfo
	// opaque records reflect call positions per enclosing function.
	opaque map[*FuncInfo][]token.Pos
}

func buildCallGraph(prog *Program) *callGraph {
	g := &callGraph{
		callees: make(map[*FuncInfo][]*FuncInfo),
		opaque:  make(map[*FuncInfo][]token.Pos),
	}
	dv := newDevirtualizer(prog)
	for _, fi := range prog.markers.all {
		if fi.Body() == nil {
			continue
		}
		g.buildEdges(prog, dv, fi)
	}
	return g
}

// buildEdges walks one function body (not descending into nested
// literals — each literal is its own node) and records every resolvable
// call target.
func (g *callGraph) buildEdges(prog *Program, dv *devirtualizer, fi *FuncInfo) {
	seen := make(map[*FuncInfo]bool)
	add := func(to *FuncInfo) {
		if to == nil || to.Body() == nil || seen[to] {
			return
		}
		seen[to] = true
		g.callees[fi] = append(g.callees[fi], to)
	}
	inspectShallow(fi.Body(), func(n ast.Node, stack []ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			// A closure created on a marked path is conservatively
			// assumed to run on it.
			add(prog.markers.lits[node])
		case *ast.CallExpr:
			g.resolveCall(prog, dv, fi, node, add)
		}
		return true
	})
}

// resolveCall classifies one call site and adds its edges.
func (g *callGraph) resolveCall(prog *Program, dv *devirtualizer, fi *FuncInfo, call *ast.CallExpr, add func(*FuncInfo)) {
	pkg := fi.Pkg
	if isConversion(pkg, call) || builtinName(pkg, call) != "" {
		return
	}
	fun := ast.Unparen(call.Fun)

	// Interface-method calls (and interface method expressions):
	// devirtualize by class hierarchy before consulting calleeOf, which
	// deliberately reports them unresolvable. This also covers methods
	// promoted from embedded interface fields, whose selection receiver
	// is the concrete outer struct.
	if selx, ok := fun.(*ast.SelectorExpr); ok {
		if sel, ok := pkg.Info.Selections[selx]; ok {
			if m, ok := sel.Obj().(*types.Func); ok && methodIface(m) != nil {
				for _, impl := range dv.implementersOf(methodIface(m), m.Name()) {
					add(impl)
				}
				return
			}
		}
	}

	if callee := calleeOf(pkg, call); callee != nil {
		if cpkg := callee.Pkg(); cpkg != nil && cpkg.Path() == "reflect" && reflectInvoker[callee.Name()] {
			g.opaque[fi] = append(g.opaque[fi], call.Pos())
			return
		}
		add(dv.declFor(callee))
		return
	}

	// Immediately invoked literal: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		add(prog.markers.lits[lit])
		return
	}

	// Function-value call: resolve the called slot (var, field, param,
	// or indexed collection) through the assignment-flow scan.
	if slot := slotObj(pkg, fun); slot != nil {
		for _, target := range dv.flows[slot] {
			add(target)
		}
	}
}

// reflectInvoker names the reflect entry points that invoke arbitrary
// code: past one of these, no static analysis can follow.
var reflectInvoker = map[string]bool{"Call": true, "CallSlice": true}

// methodIface returns the interface type a method belongs to, or nil
// for a concrete method.
func methodIface(m *types.Func) *types.Interface {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// calleeOf statically resolves a call's target, or nil when the target
// is dynamic (interface method, function value, type conversion).
// Generic instantiations resolve to their origin declaration.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.IndexExpr:
		// Generic instantiation f[T](...).
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				return fn.Origin()
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			// Interface receivers have no static body; the caller
			// devirtualizes them through the class hierarchy instead.
			if methodIface(fn) != nil {
				return nil
			}
			return fn.Origin()
		}
		// Qualified call: pkg.Func.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// slotObj resolves the storage location a function-value call reads
// from: a plain variable, a struct field, a parameter, or the base
// collection of an index expression (handlers[i]() resolves to every
// function ever stored in handlers).
func slotObj(pkg *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := pkg.Info.Uses[x]; o != nil {
			return o
		}
		return pkg.Info.Defs[x]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[x.Sel]
	case *ast.IndexExpr:
		return slotObj(pkg, x.X)
	case *ast.StarExpr:
		return slotObj(pkg, x.X)
	}
	return nil
}

// reached records why a function is subject to a contract: the marked
// root it was reached from (root == fn for the roots themselves).
type reached struct {
	fn   *FuncInfo
	root *FuncInfo
}

// reachableFrom walks the devirtualized call graph breadth-first from
// the marked roots and returns every module function with a body that
// the contract covers, each attributed to one originating root.
// Iteration order is deterministic (sorted by function full name).
func (p *Program) reachableFrom(roots []*FuncInfo) []reached {
	sort.Slice(roots, func(i, j int) bool {
		return p.nameOf(roots[i]) < p.nameOf(roots[j])
	})
	rootOf := make(map[*FuncInfo]*FuncInfo)
	var queue []*FuncInfo
	for _, r := range roots {
		if r == nil || rootOf[r] != nil {
			continue
		}
		rootOf[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, to := range p.graph.callees[fn] {
			if rootOf[to] != nil {
				continue
			}
			rootOf[to] = rootOf[fn]
			queue = append(queue, to)
		}
	}
	var out []reached
	for fn, root := range rootOf {
		if fn.Body() == nil {
			continue
		}
		out = append(out, reached{fn: fn, root: root})
	}
	sort.Slice(out, func(i, j int) bool {
		return p.nameOf(out[i].fn) < p.nameOf(out[j].fn)
	})
	return out
}

// allRoots returns the union of every contract's marked roots, for
// passes (like the devirt opacity report) that apply to any marked
// path.
func (p *Program) allRoots() []*FuncInfo {
	seen := make(map[*FuncInfo]bool)
	var out []*FuncInfo
	for _, c := range []contract{contractHotpath, contractDeterministic} {
		for _, fi := range p.markers.roots(c) {
			if !seen[fi] {
				seen[fi] = true
				out = append(out, fi)
			}
		}
	}
	return out
}

// nameOf renders a stable human-readable name for any graph node:
// fullName for declarations, pkg.func@file:line for literals.
func (p *Program) nameOf(fi *FuncInfo) string {
	if fi == nil {
		return ""
	}
	if fi.Obj != nil {
		return fullName(fi.Obj)
	}
	if fi.Lit != nil {
		pos := p.Fset.Position(fi.Lit.Pos())
		return fi.Pkg.Types.Name() + ".func@" + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line) + ":" + strconv.Itoa(pos.Column)
	}
	return "?"
}

// fullName is types.Func.FullName without the module path noise:
// "soc.(*SoC).Run" instead of "(*repro/internal/sim/soc.SoC).Run".
func fullName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + name
		}
		return name
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
		ptr = "*"
	}
	recvName := recv.String()
	if named, ok := recv.(*types.Named); ok {
		recvName = named.Obj().Name()
	}
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	if ptr != "" {
		return pkgName + "(" + ptr + recvName + ")." + name
	}
	return pkgName + recvName + "." + name
}

// viaClause renders the attribution suffix for propagated diagnostics.
func viaClause(p *Program, r reached) string {
	if r.fn == r.root {
		return ""
	}
	return " (reached from " + strings.TrimSpace(p.nameOf(r.root)) + ")"
}
