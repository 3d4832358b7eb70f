package analysis

import (
	"go/ast"
	"go/types"

	"janus/internal/analysis/cfg"
)

// DeferLoop returns the deferloop analyzer: it flags `defer x.Unlock()`,
// `defer x.RUnlock()`, and `defer x.Close()` inside loop bodies. Deferred
// calls run at function return, not at the end of the iteration, so a
// defer in a loop holds the lock (or the descriptor) across every later
// iteration and accumulates one pending call per pass — exactly the
// failure mode of the per-period temporal chain (§5.5), where a deferred
// unlock inside the hour loop serializes the whole run.
//
// Loop membership is decided on the control-flow graph: a statement is "in
// a loop" when its basic block belongs to a natural loop (the target of a
// back edge plus everything that reaches it), which covers for and range
// loops, nested ifs and switches inside them, and goto-formed cycles
// alike. Defers inside a function literal in the loop are fine — the
// literal is its own function and releases on every call.
func DeferLoop() *Analyzer {
	a := &Analyzer{
		Name: "deferloop",
		Doc:  "flags defers of Unlock/RUnlock/Close inside loop bodies",
	}
	a.Run = func(pass *Pass) {
		for _, body := range functionBodies(pass.Pkg.Files) {
			g := cfg.New(body)
			loops := g.LoopBlocks()
			if len(loops) == 0 {
				continue
			}
			for _, b := range g.Blocks {
				if !loops[b] {
					continue
				}
				for _, n := range b.Nodes {
					inspectSkipFuncLit(n, func(n ast.Node) {
						ds, ok := n.(*ast.DeferStmt)
						if !ok {
							return
						}
						if name, ok := releaseCallName(ds.Call); ok {
							pass.Reportf(ds.Pos(),
								"defer %s inside a loop releases only at function return: call it at the end of the iteration or hoist the body into a function, or annotate //janus:allow(deferloop): <reason>",
								name)
						}
					})
				}
			}
		}
	}
	return a
}

// releaseCallName matches calls whose deferral inside a loop pins a
// resource: mutex unlocks and closes.
func releaseCallName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Unlock", "RUnlock", "Close":
		return types.ExprString(call.Fun) + "()", true
	}
	return "", false
}

// functionBodies collects every function body in the files: declarations
// plus function literals, each analyzed as its own intraprocedural unit.
func functionBodies(files []*ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
	}
	return bodies
}
