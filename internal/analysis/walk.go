package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// inspectStack walks root calling f with every node and its ancestor
// stack (root first, parent of n last). Returning false skips n's
// children, mirroring ast.Inspect.
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := f(n, stack)
		stack = append(stack, n)
		if !descend {
			// Still push/pop symmetrically: ast.Inspect won't call us
			// for children, but it will send the nil pop for n.
			return false
		}
		return true
	})
}

// inspectShallow walks root like inspectStack but does not descend
// into nested function literals: every literal is its own call-graph
// node, checked when its FuncInfo is processed (reached through a
// containment or flow edge). The *ast.FuncLit node itself IS visited —
// the cost of creating the closure value belongs to the enclosing
// function.
func inspectShallow(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	inspectStack(root, func(n ast.Node, stack []ast.Node) bool {
		if !f(n, stack) {
			return false
		}
		_, isLit := n.(*ast.FuncLit)
		return !isLit
	})
}

// pathTo returns the nodes of body that enclose pos, outermost first,
// or nil when pos lies outside body or inside the body of a nested
// function literal (each literal is its own call-graph node). A
// literal is the innermost node for a position on its func keyword.
func pathTo(body *ast.BlockStmt, pos token.Pos) []ast.Node {
	var path []ast.Node
	nested := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || nested || pos < n.Pos() || pos >= n.End() {
			return false
		}
		path = append(path, n)
		if lit, ok := n.(*ast.FuncLit); ok {
			nested = pos >= lit.Body.Pos()
			return false
		}
		return true
	})
	if nested {
		return nil
	}
	return path
}

// inPanicArg reports whether the node whose ancestor stack is given sits
// inside the argument list of a builtin panic call. Assertion panics
// (panic(fmt.Sprintf(...)) guarding impossible states) are exempt from
// the hot-path allocation rules: if they fire, performance is moot.
func inPanicArg(pkg *Package, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if isBuiltin(pkg, call, "panic") {
			return true
		}
	}
	return false
}

// isBuiltin reports whether call invokes the named Go builtin.
func isBuiltin(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// builtinName returns the builtin's name if call invokes one, else "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
		return id.Name
	}
	return ""
}

// isConversion reports whether call is a type conversion T(x).
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// typeOf is a nil-safe Info.Types lookup.
func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// enclosedInLoop reports whether any ancestor between the function body
// (stack[0]) and the node is a for/range statement.
func enclosedInLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}
