package analysis

import (
	"go/ast"
	"go/types"

	"janus/internal/analysis/ssa"
)

// DeadStore returns the deadstore analyzer: it flags stores whose value is
// never read — the variable is overwritten or goes out of scope before any
// use. The compiler only rejects variables that are *never* used; a store
// shadowed by a later store slips through, and the classic victim is an
// error: in
//
//	n, err := w.Write(a)
//	m, err = w.Write(b) // first err never checked
//
// the first err is silently discarded even though errdrop (which only sees
// bare call statements) cannot say so.
//
// The analysis is SSA-based (internal/analysis/ssa): each store is one
// definition, uses resolve through phis at control-flow joins, and a
// dead-code-elimination mark phase lets a store count as dead even when
// its only consumers are other dead stores (a counter incremented in a
// loop but never read, say). Variables the SSA layer cannot track —
// address taken, captured by a closure — are skipped, as are parameters,
// named results (read implicitly by bare returns), and zero-value
// declarations (an uninitialized var before branches that assign it is
// idiomatic, not a bug).
func DeadStore() *Analyzer {
	a := &Analyzer{Name: "deadstore"}
	a.Run = func(pass *Pass) {
		for _, fd := range funcDecls(pass.Pkg.Files) {
			fn := ssa.Build(pass.Pkg.Info, fd.typ, fd.recv, fd.body)
			runDeadStore(pass, fn, namedResults(pass.Pkg.Info, fd.typ))
		}
	}
	return a
}

// funcSrc is one function body with its signature syntax.
type funcSrc struct {
	typ  *ast.FuncType
	recv *ast.FieldList
	body *ast.BlockStmt
}

// funcDecls collects every function declaration and literal in the files.
func funcDecls(files []*ast.File) []funcSrc {
	var out []funcSrc
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, funcSrc{typ: n.Type, recv: n.Recv, body: n.Body})
				}
			case *ast.FuncLit:
				out = append(out, funcSrc{typ: n.Type, body: n.Body})
			}
			return true
		})
	}
	return out
}

func runDeadStore(pass *Pass, fn *ssa.Func, named map[*types.Var]bool) {
	live := fn.Live()
	for _, d := range fn.Defs {
		if d.Kind != ssa.Assign || live[d] {
			continue
		}
		if d.Ident == nil || named[d.Var] {
			continue
		}
		if !fn.Dom.Reachable(d.Block) {
			continue
		}
		what := "value"
		if isErrorVar(d.Var) {
			what = "error"
		}
		pass.Reportf(d.Ident.Pos(),
			"dead store: %s assigned to %s is never read before being overwritten or going out of scope; drop the assignment or use the value, or annotate //janus:allow(deadstore): <reason>",
			what, d.Var.Name())
	}
}

// namedResults collects the function's named result variables: a bare
// return (and a panic recovered by a deferred function) reads them
// implicitly, which the SSA layer does not model, so a store to one is
// never reported dead.
func namedResults(info *types.Info, typ *ast.FuncType) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if typ == nil || typ.Results == nil {
		return out
	}
	for _, f := range typ.Results.List {
		for _, name := range f.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out[v] = true
			}
		}
	}
	return out
}

func isErrorVar(v *types.Var) bool {
	t := v.Type()
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
