package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the -jobs 1 ≡ -jobs N byte-identical output
// contract: functions marked //repro:deterministic, and every
// same-module function statically reachable from them, must not let
// host state into results.
//
// Flagged: wall-clock reads (time.Now/Since/Until and timer
// constructors); the global math/rand generator (explicit *rand.Rand
// instances threaded from seeds are fine — that's the repo's idiom);
// environment/host reads (os.Getenv, os.Hostname, os.Getpid, ...);
// host-parallelism and goroutine-count reads (runtime.GOMAXPROCS,
// NumCPU, NumGoroutine); writes (assignment, ++/--, map/index stores)
// whose base resolves to a package-level variable, which concurrent
// tasks would share; and ranging over a map, whose iteration order is
// deliberately random, unless the body is the sorted-keys idiom:
// collect keys with k = append(k, key) and sort them later in the same
// function.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags host-state and ordering nondeterminism reachable from //repro:deterministic roots",
	Run:  runDeterminism,
}

// bannedCalls maps package path → function name → explanation.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"After":     "schedules on the wall clock",
		"Tick":      "schedules on the wall clock",
		"NewTimer":  "schedules on the wall clock",
		"NewTicker": "schedules on the wall clock",
		"AfterFunc": "schedules on the wall clock",
	},
	"os": {
		"Getenv":        "reads the environment",
		"LookupEnv":     "reads the environment",
		"Environ":       "reads the environment",
		"Hostname":      "reads host identity",
		"Getpid":        "reads host identity",
		"Getppid":       "reads host identity",
		"Getuid":        "reads host identity",
		"Getwd":         "reads host state",
		"UserHomeDir":   "reads host state",
		"UserCacheDir":  "reads host state",
		"UserConfigDir": "reads host state",
		"TempDir":       "reads host state",
	},
	"runtime": {
		"GOMAXPROCS":   "reads host parallelism",
		"NumCPU":       "reads host parallelism",
		"NumGoroutine": "reads goroutine identity",
	},
}

// randConstructors are the math/rand package-level functions that are
// allowed: they build explicitly-seeded generators instead of consuming
// the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, r := range prog.reachableFrom(prog.markers.roots(contractDeterministic)) {
		diags = append(diags, checkDeterministic(prog, r)...)
	}
	return diags
}

func checkDeterministic(prog *Program, r reached) []Diagnostic {
	var diags []Diagnostic
	fi, pkg := r.fn, r.fn.Pkg
	via := viaClause(prog, r)
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(pos),
			Analyzer: "determinism",
			Message:  msg + via,
		})
	}

	inspectShallow(fi.Body(), func(n ast.Node, stack []ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				reportPkgWrite(pkg, lhs, report)
			}
		case *ast.IncDecStmt:
			reportPkgWrite(pkg, node.X, report)
		case *ast.CallExpr:
			checkBannedCall(pkg, node, report)
		case *ast.RangeStmt:
			if isMapType(typeOf(pkg, node.X)) && !isSortedKeysIdiom(pkg, fi, node) {
				report(node.Range, "map iteration order is randomized; collect keys and sort (see sorted-keys idiom)")
			}
		}
		return true
	})
	return diags
}

func checkBannedCall(pkg *Package, call *ast.CallExpr, report func(token.Pos, string)) {
	callee := calleeOf(pkg, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	path, name := callee.Pkg().Path(), callee.Name()
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. *rand.Rand.Intn, time.Time.Sub) are instance-scoped
	}
	if why, ok := bannedCalls[path][name]; ok {
		report(call.Pos(), "call to "+path+"."+name+" "+why)
		return
	}
	if (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name] {
		report(call.Pos(), "global math/rand."+name+" shares seed state across the process; thread a *rand.Rand from a task seed")
	}
}

func reportPkgWrite(pkg *Package, lhs ast.Expr, report func(token.Pos, string)) {
	if v := pkgLevelTarget(pkg, lhs); v != nil {
		report(lhs.Pos(), "package-level state written ("+v.Name()+"): concurrent tasks must not share mutable state")
	}
}

// pkgLevelTarget resolves a write destination to the package-level
// variable it mutates, or nil for locals, parameters and fields of
// local values. Writes THROUGH a package-level base count: pkgMap[k],
// pkgVar.field and pkgSlice[i] all mutate shared state.
func pkgLevelTarget(pkg *Package, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			v := identVar(pkg, x)
			if v != nil && isPkgLevel(v) {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			// Qualified reference to another package's variable.
			if _, ok := pkg.Info.Uses[identOf(x.X)].(*types.PkgName); ok {
				if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && isPkgLevel(v) {
					return v
				}
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func identVar(pkg *Package, id *ast.Ident) *types.Var {
	if id == nil {
		return nil
	}
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := pkg.Info.Defs[id].(*types.Var)
	return v
}

// isPkgLevel reports whether v is declared at package scope (the scope
// whose parent is the universe).
func isPkgLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// isSortedKeysIdiom recognizes the one blessed map-range shape:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)   // or any sort./slices.Sort* over keys, later
//
// The range body must be exactly the self-append of the key, and the
// collected slice must flow into a sort call later in the same function.
func isSortedKeysIdiom(pkg *Package, fi *FuncInfo, rng *ast.RangeStmt) bool {
	if rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || builtinName(pkg, call) != "append" || len(call.Args) != 2 {
		return false
	}
	if types.ExprString(as.Lhs[0]) != types.ExprString(call.Args[0]) {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok || arg.Name != keyID.Name {
		return false
	}
	keysVar := collectedVar(pkg, as.Lhs[0])
	if keysVar == nil {
		return false
	}
	// Look for a sort call after the range that consumes the keys var.
	sorted := false
	ast.Inspect(fi.Body(), func(n ast.Node) bool {
		if sorted || n == nil || n.Pos() <= rng.End() {
			return true
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(pkg, c) {
			return true
		}
		for _, a := range c.Args {
			used := false
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == keysVar {
					used = true
				}
				return !used
			})
			if used {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// collectedVar resolves the variable object of the keys slice.
func collectedVar(pkg *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := pkg.Info.Uses[x]; o != nil {
			return o
		}
		return pkg.Info.Defs[x]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[x.Sel]
	}
	return nil
}

// isSortCall recognizes sort.* and slices.Sort* calls.
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	callee := calleeOf(pkg, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		switch callee.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
