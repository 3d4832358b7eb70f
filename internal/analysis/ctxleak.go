package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"janus/internal/analysis/callgraph"
	"janus/internal/analysis/cfg"
)

// CtxLeak returns the ctxleak analyzer: it flags goroutines that can block
// forever on a channel operation while no cancellation signal — a
// context.Context or a done-style channel — reaches them at all. Such
// goroutines outlive the work that spawned them; in a controller serving
// millions of users they pile up until the process dies.
//
// For each go statement it resolves the launched function's call-graph
// closure (static calls, interface dispatch, closures, and function
// values; nested go statements are separate goroutines and excluded). The
// launched body itself is the first node of that closure, so a literal
// `go func() { <-ch }()` and a wrapper `go s.run()` whose helper blocks
// are the same question. The goroutine is cancellable if the go call's
// arguments or any function in the closure reference a context.Context or
// a `chan struct{}` whose name reads like a lifetime signal (done, stop,
// quit, shutdown, ...). It can leak if any function reachable through
// actual invocation edges contains a channel send/receive, a range over a
// channel, or a select without a default clause; operations only
// reachable through dead code are ignored (control-flow graph
// reachability), and a receive inside a select that has a default clause
// does not block.
//
// In Default() the check is scoped to internal/server, internal/runtime,
// and internal/dataplane — the long-lived layers where a leaked goroutine
// survives for the life of the controller.
func CtxLeak() *Analyzer { return ctxLeakWith(&interp{}) }

func ctxLeakWith(ip *interp) *Analyzer {
	a := &Analyzer{Name: "ctxleak"}
	a.Prepare = ip.prepare
	a.Run = bucketed(ip, computeCtxLeak)
	return a
}

func computeCtxLeak(g *callgraph.Graph, pkgs []*Package) map[*types.Package][]finding {
	byPkg := map[*types.Package][]finding{}
	cancelKeep := func(e *callgraph.Edge) bool { return e.Kind != callgraph.Go }
	blockKeep := func(e *callgraph.Edge) bool { return e.Call != nil && e.Kind != callgraph.Go }

	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				launched := g.CalleesAt(gs.Call)
				// A ctx or done channel threaded through the go call's own
				// arguments governs the goroutine even if no closure body
				// names it.
				if len(launched) == 0 || mentionsCancel(p.Info, gs.Call) {
					return true
				}
				for cn := range g.Reachable(launched, cancelKeep) {
					if cn.Body() != nil && cn.Unit != nil && mentionsCancel(cn.Unit.Info, cn.Body()) {
						return true
					}
				}
				for _, bn := range sortedNodes(g, g.Reachable(launched, blockKeep)) {
					if bn.Body() == nil || bn.Unit == nil {
						continue
					}
					if op := firstBlockingOp(bn.Unit.Info, bn.Body()); op != nil {
						byPkg[p.Types] = append(byPkg[p.Types], finding{
							pos: gs.Pos(),
							msg: fmt.Sprintf("goroutine can block forever (%s at %s in %s) with no context.Context or done channel reaching its call closure: plumb a ctx and select on ctx.Done(), or annotate //janus:allow(ctxleak): <reason>",
								blockingOpDesc(op), shortPos(g.Fset, op.Pos()), friendlyName(g.Fset, bn)),
						})
						return true
					}
				}
				return true
			})
		}
	}
	return byPkg
}

// sortedNodes orders a node set by graph creation order, for
// deterministic reporting.
func sortedNodes(g *callgraph.Graph, set map[*callgraph.Node]bool) []*callgraph.Node {
	var out []*callgraph.Node
	for _, n := range g.Nodes {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// mentionsCancel reports whether n references a context.Context value or a
// done-style chan struct{} anywhere (nested literals included: a
// cancellation signal threaded into a helper closure still governs the
// goroutine's lifetime).
func mentionsCancel(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj != nil && (isContextType(obj.Type()) || (isDoneChan(obj.Type()) && isDoneName(id.Name))) {
			found = true
		}
		return true
	})
	return found
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isDoneChan matches chan struct{} / <-chan struct{}, the conventional
// shape of a lifetime signal.
func isDoneChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

func isDoneName(name string) bool {
	l := strings.ToLower(name)
	for _, w := range []string{"done", "stop", "quit", "exit", "close", "shutdown", "cancel"} {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// firstBlockingOp returns a reachable channel operation that can block
// forever, or nil. The body's own control-flow graph decides
// reachability and whether a select has a default clause.
func firstBlockingOp(info *types.Info, body *ast.BlockStmt) ast.Node {
	g := cfg.New(body)
	reachable := g.Reachable()

	// Comm statements of selects that carry a default clause never block.
	nonBlocking := map[ast.Node]bool{}
	for _, b := range g.Blocks {
		if b.Select == nil {
			continue
		}
		hasDefault := false
		for _, c := range b.Select.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range b.Select.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					nonBlocking[comm] = true
				}
			}
		} else if len(b.Select.Body.List) == 0 {
			return b.Select // select{} blocks forever
		}
	}

	var op ast.Node
	for _, b := range g.Blocks {
		if !reachable[b] || op != nil {
			continue
		}
		if r := b.Range; r != nil {
			if t := exprType(info, r.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					op = r.X
					continue
				}
			}
		}
		for _, n := range b.Nodes {
			if nonBlocking[n] {
				continue
			}
			inspectSkipFuncLit(n, func(n ast.Node) {
				if op != nil {
					return
				}
				switch n := n.(type) {
				case *ast.SendStmt:
					op = n
				case *ast.UnaryExpr:
					if n.Op.String() == "<-" {
						op = n
					}
				}
			})
			if op != nil {
				break
			}
		}
	}
	return op
}

func blockingOpDesc(n ast.Node) string {
	switch n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		return "empty select"
	default:
		return "channel receive"
	}
}
