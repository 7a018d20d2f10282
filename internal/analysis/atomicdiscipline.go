package analysis

import "go/types"

// AtomicDiscipline bans the function-style sync/atomic API
// (atomic.AddUint64(&x, 1) and friends) in module code. Those functions
// take the address of a plain variable, so nothing stops another line
// from reading or writing the same variable plainly: a data race the
// race detector only catches when the interleaving cooperates. The
// typed atomics (atomic.Uint64, atomic.Int64, atomic.Pointer[T], ...)
// make that mixed access a compile error, so requiring them covers the
// all-or-nothing rule by construction.
//
// Unlike the contract analyzers this pass is whole-program rather than
// root-driven: a racy atomic is a bug wherever it sits. Every
// reference to a package-level sync/atomic function is flagged, called
// or taken as a value.
var AtomicDiscipline = &Analyzer{
	Name: "atomicdiscipline",
	Doc:  "flags function-style sync/atomic calls: use a typed atomic",
	Run:  runAtomicDiscipline,
}

func runAtomicDiscipline(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      prog.Fset.Position(id.Pos()),
				Analyzer: "atomicdiscipline",
				Message: "function-style atomic." + fn.Name() +
					" leaves the variable open to plain access: use a typed atomic (atomic.Int64, atomic.Uint64, ...)",
			})
		}
	}
	return diags
}
