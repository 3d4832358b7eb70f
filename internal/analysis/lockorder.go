package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"janus/internal/analysis/callgraph"
	"janus/internal/analysis/cfg"
)

// LockOrder returns the lockorder analyzer: an interprocedural
// lock-acquisition-order check over sync.Mutex/RWMutex values.
//
// A lock class is the variable or struct field holding the mutex — an
// instance-insensitive abstraction, so every *search shares one "mu"
// class. Inside each function a forward may-analysis over the control-flow
// graph tracks the set of classes held at every statement; Lock/RLock adds
// a class, Unlock/RUnlock removes it, and paths merge by union. At each
// call site the held set is crossed with the callee's transitive
// may-acquire summary — computed bottom-up over the call graph's SCC
// condensation, excluding `go` edges because a goroutine's acquisitions
// are not made while the caller's locks pin its stack. Every (held,
// acquired) pair becomes an edge in a global acquisition-order graph;
// cycles in that graph are potential deadlocks and are reported once per
// cycle at the lexically first participating site.
//
// Two flow findings ride along: acquiring a class already held (self
// deadlock for a plain Mutex), and a channel operation — send, receive,
// range over a channel, or a select without default — performed while any
// lock is held, directly or through a callee that may block; a blocked
// channel op under a lock stalls every other locker. sync.Cond.Wait is
// exempt (it releases the lock while parked).
//
// The same held set enforces the struct layout convention "mu guards the
// fields below it": in every struct, a sync.Mutex or sync.RWMutex field
// guards the fields declared after it, up to the next mutex field (fields
// above the first mutex are immutable after construction). A method that
// touches recv.f while f's mutex is not held at that statement is flagged,
// unless its name ends in "Locked" (the caller-holds-lock convention).
func LockOrder() *Analyzer { return lockOrderWith(&interp{}) }

func lockOrderWith(ip *interp) *Analyzer {
	a := &Analyzer{Name: "lockorder"}
	a.Prepare = ip.prepare
	a.Run = bucketed(ip, computeLockOrder)
	return a
}

// lockClasses is the dataflow fact: the set of lock classes that may be
// held.
type lockClasses = map[*types.Var]bool

// orderSite records where an acquisition-order edge was first observed.
type orderSite struct {
	pos token.Pos
	pkg *types.Package
}

func computeLockOrder(g *callgraph.Graph, pkgs []*Package) map[*types.Package][]finding {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset

	// Bottom-up summaries: the classes a call into n may acquire, and
	// whether a call into n may block on a channel operation.
	direct := map[*callgraph.Node]lockClasses{}
	directBlocks := map[*callgraph.Node]bool{}
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil || n.Unit == nil {
			continue
		}
		info := n.Unit.Info
		acq := lockClasses{}
		inspectSkipFuncLit(body, func(x ast.Node) {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return
			}
			if verb, class := lockVerb(info, call); class != nil && (verb == "lock" || verb == "trylock") {
				acq[class] = true
			}
		})
		if len(acq) > 0 {
			direct[n] = acq
		}
		if firstBlockingOp(info, body) != nil {
			directBlocks[n] = true
		}
	}
	// Only invocation edges made on the caller's own goroutine carry the
	// summaries across frames.
	carries := func(e *callgraph.Edge) bool { return e.Call != nil && e.Kind != callgraph.Go }
	acquires := callgraph.Propagate(g,
		func(n *callgraph.Node) lockClasses { return direct[n] },
		func(s lockClasses, e *callgraph.Edge, callee lockClasses) lockClasses {
			if !carries(e) {
				return s
			}
			return cfg.Union(s, callee)
		},
		cfg.EqualSets[*types.Var],
	)
	mayBlock := callgraph.Propagate(g,
		func(n *callgraph.Node) bool { return directBlocks[n] },
		func(s bool, e *callgraph.Edge, callee bool) bool { return s || (carries(e) && callee) },
		func(a, b bool) bool { return a == b },
	)

	byPkg := map[*types.Package][]finding{}
	seen := map[string]bool{}
	report := func(pkg *types.Package, pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%d\x00%s", pos, msg)
		if seen[key] || pkg == nil {
			return
		}
		seen[key] = true
		byPkg[pkg] = append(byPkg[pkg], finding{pos: pos, msg: msg})
	}

	edges := map[[2]*types.Var]orderSite{}
	addEdge := func(from, to *types.Var, pkg *types.Package, pos token.Pos) {
		key := [2]*types.Var{from, to}
		if cur, ok := edges[key]; !ok || pos < cur.pos {
			edges[key] = orderSite{pos: pos, pkg: pkg}
		}
	}

	guards := guardedFields(pkgs)
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil || n.Unit == nil {
			continue
		}
		replayLockOrder(g, n, fset, acquires, mayBlock, guards, addEdge, report)
	}

	reportOrderCycles(fset, edges, report)

	for _, fs := range byPkg {
		sort.Slice(fs, func(i, j int) bool { return fs[i].pos < fs[j].pos })
	}
	return byPkg
}

// guardedFields maps each field of every package-level struct type to the
// mutex field that guards it: the nearest mutex field declared above it.
func guardedFields(pkgs []*Package) map[*types.Var]*types.Var {
	guards := map[*types.Var]*types.Var{}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			var mu *types.Var
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case isMutex(f.Type()):
					mu = f
				case mu != nil:
					guards[f] = mu
				}
			}
		}
	}
	return guards
}

// guardReceiver returns the receiver of a method held to the guard rule,
// or nil for function literals, plain functions, and methods named
// *Locked, whose callers hold the lock.
func guardReceiver(n *callgraph.Node) *types.Var {
	if n.Func == nil || strings.HasSuffix(n.Func.Name(), "Locked") {
		return nil
	}
	return n.Func.Type().(*types.Signature).Recv()
}

// replayLockOrder runs the held-set fixpoint over one body and replays it
// statement by statement, feeding acquisition-order edges and flow
// findings to the sinks.
func replayLockOrder(g *callgraph.Graph, n *callgraph.Node, fset *token.FileSet,
	acquires map[*callgraph.Node]lockClasses, mayBlock map[*callgraph.Node]bool,
	guards map[*types.Var]*types.Var,
	addEdge func(from, to *types.Var, pkg *types.Package, pos token.Pos),
	report func(pkg *types.Package, pos token.Pos, format string, args ...any)) {

	info := n.Unit.Info
	pkg := n.Unit.Pkg
	body := n.Body()
	cg := cfg.New(body)
	recv := guardReceiver(n)

	// Comm statements belong to their select: a no-default select is
	// reported once as a whole, and one with a default never blocks.
	commOps := map[ast.Node]bool{}
	for _, b := range cg.Blocks {
		if b.Select == nil {
			continue
		}
		for _, c := range b.Select.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil {
				commOps[comm] = true
			}
		}
	}

	step := func(held lockClasses, x ast.Node, observe bool) lockClasses {
		inspectLockOps(x, func(y ast.Node) {
			switch y := y.(type) {
			case *ast.CallExpr:
				verb, class := lockVerb(info, y)
				switch {
				case class != nil && (verb == "lock" || verb == "trylock"):
					if observe {
						for _, h := range sortedClasses(held) {
							if h == class {
								report(pkg, y.Pos(), "%s is acquired while already held — a plain Lock here deadlocks its own goroutine", className(h))
								continue
							}
							if verb == "lock" {
								addEdge(h, class, pkg, y.Pos())
							}
						}
					}
					held = withClass(held, class)
				case class != nil:
					held = withoutClass(held, class)
				default:
					if !observe || len(held) == 0 {
						return
					}
					for _, callee := range g.CalleesAt(y) {
						for _, acq := range sortedClasses(acquires[callee]) {
							for _, h := range sortedClasses(held) {
								if h == acq {
									report(pkg, y.Pos(), "call into %s may re-acquire %s, which is already held here", friendlyName(fset, callee), className(h))
									continue
								}
								addEdge(h, acq, pkg, y.Pos())
							}
						}
						if mayBlock[callee] {
							report(pkg, y.Pos(), "call into %s may block on a channel operation while holding %s", friendlyName(fset, callee), heldNames(held))
						}
					}
				}
			case *ast.SelectorExpr:
				if !observe || recv == nil {
					return
				}
				if id, ok := y.X.(*ast.Ident); !ok || info.Uses[id] != recv {
					return
				}
				sel := info.Selections[y]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				f, _ := sel.Obj().(*types.Var)
				if mu := guards[f]; mu != nil && !held[mu] {
					report(pkg, y.Sel.Pos(), "%s accesses %s (guarded by %s) without holding the lock: lock %s, add a Locked name suffix, or annotate //janus:allow(lockorder): <reason>",
						friendlyName(fset, n), f.Name(), mu.Name(), mu.Name())
				}
			case *ast.SendStmt:
				if observe && len(held) > 0 && !commOps[x] {
					report(pkg, y.Pos(), "channel send while holding %s; if the channel is full every other locker stalls behind this goroutine", heldNames(held))
				}
			case *ast.UnaryExpr:
				if y.Op == token.ARROW && observe && len(held) > 0 && !commOps[x] {
					report(pkg, y.Pos(), "channel receive while holding %s; if no sender comes every other locker stalls behind this goroutine", heldNames(held))
				}
			}
		})
		return held
	}

	in := cfg.Fixpoint(cg, cfg.Analysis[lockClasses]{
		Dir:      cfg.Forward,
		Boundary: lockClasses{},
		Bottom:   func() lockClasses { return lockClasses{} },
		Join:     cfg.Union[*types.Var],
		Equal:    cfg.EqualSets[*types.Var],
		Transfer: func(b *cfg.Block, fact lockClasses) lockClasses {
			for _, x := range b.Nodes {
				fact = step(fact, x, false)
			}
			return fact
		},
	})

	for _, b := range cg.Blocks {
		held, ok := in[b]
		if !ok {
			continue // unreachable
		}
		if len(held) > 0 {
			if r := b.Range; r != nil {
				if t := exprType(info, r.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						report(pkg, r.Pos(), "ranging over a channel while holding %s; the loop blocks between messages with the lock held", heldNames(held))
					}
				}
			}
			if s := b.Select; s != nil && !selectHasDefault(s) {
				report(pkg, s.Pos(), "select without default while holding %s; all cases can block with the lock held", heldNames(held))
			}
		}
		for _, x := range b.Nodes {
			// The loop-carried set feeds the next node's report; the final
			// iteration's value is intentionally discarded.
			held = step(held, x, true) //janus:allow(deadstore): stepping has the reporting side effect; the last value is unused by design
		}
	}
}

// reportOrderCycles finds cycles in the acquisition-order graph and
// reports each once, at its lexically first edge.
func reportOrderCycles(fset *token.FileSet, edges map[[2]*types.Var]orderSite,
	report func(pkg *types.Package, pos token.Pos, format string, args ...any)) {

	adj := map[*types.Var][]*types.Var{}
	for e := range edges {
		if e[0] != e[1] {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	for _, succ := range adj {
		sort.Slice(succ, func(i, j int) bool { return className(succ[i]) < className(succ[j]) })
	}
	comps := classSCCs(adj)
	for _, comp := range comps {
		if len(comp) < 2 {
			continue
		}
		inComp := map[*types.Var]bool{}
		for _, v := range comp {
			inComp[v] = true
		}
		// Collect the participating edges, lexically ordered.
		type compEdge struct {
			from, to *types.Var
			site     orderSite
		}
		var ce []compEdge
		for e, site := range edges {
			if inComp[e[0]] && inComp[e[1]] && e[0] != e[1] {
				ce = append(ce, compEdge{e[0], e[1], site})
			}
		}
		sort.Slice(ce, func(i, j int) bool { return ce[i].site.pos < ce[j].site.pos })
		sort.Slice(comp, func(i, j int) bool { return className(comp[i]) < className(comp[j]) })
		names := make([]string, 0, len(comp)+1)
		for _, v := range comp {
			names = append(names, className(v))
		}
		names = append(names, names[0])
		others := make([]string, 0, len(ce)-1)
		for _, e := range ce[1:] {
			others = append(others, shortPos(fset, e.site.pos))
		}
		msg := fmt.Sprintf("potential deadlock: lock-order cycle %s", strings.Join(names, " → "))
		if len(others) > 0 {
			msg += fmt.Sprintf(" (conflicting acquisition at %s)", strings.Join(others, ", "))
		}
		report(ce[0].site.pkg, ce[0].site.pos, "%s", msg)
	}
}

// classSCCs is Tarjan over the acquisition-order graph.
func classSCCs(adj map[*types.Var][]*types.Var) [][]*types.Var {
	vars := make([]*types.Var, 0, len(adj))
	for v := range adj {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })

	type state struct {
		index, low int
		onStack    bool
	}
	states := map[*types.Var]*state{}
	var stack []*types.Var
	var comps [][]*types.Var
	next := 0
	var connect func(v *types.Var)
	connect = func(v *types.Var) {
		st := &state{index: next, low: next}
		next++
		states[v] = st
		stack = append(stack, v)
		st.onStack = true
		for _, w := range adj[v] {
			ws, ok := states[w]
			switch {
			case !ok:
				connect(w)
				if l := states[w].low; l < st.low {
					st.low = l
				}
			case ws.onStack:
				if ws.index < st.low {
					st.low = ws.index
				}
			}
		}
		if st.low == st.index {
			var comp []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[w].onStack = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range vars {
		if _, ok := states[v]; !ok {
			connect(v)
		}
	}
	return comps
}

// lockVerb classifies a call as a mutex acquire or release, resolving the
// lock-class variable. verb is "lock" (blocking acquire), "trylock", or
// "unlock"; class is nil when the call is not a mutex method.
func lockVerb(info *types.Info, call *ast.CallExpr) (verb string, class *types.Var) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		verb = "lock"
	case "TryLock", "TryRLock":
		verb = "trylock"
	case "Unlock", "RUnlock":
		verb = "unlock"
	default:
		return "", nil
	}
	s := info.Selections[sel]
	if s == nil {
		return "", nil
	}
	m, ok := s.Obj().(*types.Func)
	if !ok || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", nil
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if !isMutex(recv) {
		return "", nil
	}
	if v := lockClassVar(info, sel.X); v != nil {
		return verb, v
	}
	return "", nil
}

// lockClassVar resolves the lock-class variable of a mutex expression: the
// innermost field for x.y.mu, the variable itself for a plain mu, the
// collection variable for locks[i].
func lockClassVar(info *types.Info, x ast.Expr) *types.Var {
	switch x := x.(type) {
	case *ast.ParenExpr:
		return lockClassVar(info, x.X)
	case *ast.StarExpr:
		return lockClassVar(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return lockClassVar(info, x.X)
		}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		if v, ok := rootVar(info, x).(*types.Var); ok {
			return v
		}
	}
	return nil
}

func className(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

func sortedClasses(s lockClasses) []*types.Var {
	out := make([]*types.Var, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := className(out[i]), className(out[j]); a != b {
			return a < b
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}

func heldNames(s lockClasses) string {
	names := make([]string, 0, len(s))
	for _, v := range sortedClasses(s) {
		names = append(names, className(v))
	}
	return strings.Join(names, ", ")
}

func withClass(s lockClasses, v *types.Var) lockClasses {
	if s[v] {
		return s
	}
	out := make(lockClasses, len(s)+1)
	for k := range s {
		out[k] = true
	}
	out[v] = true
	return out
}

func withoutClass(s lockClasses, v *types.Var) lockClasses {
	if !s[v] {
		return s
	}
	out := make(lockClasses, len(s))
	for k := range s {
		if k != v {
			out[k] = true
		}
	}
	return out
}

// inspectLockOps walks x in preorder, skipping nested function literals
// and the bodies of go/defer statements: a deferred call runs at return,
// not here, so `mu.Lock(); defer mu.Unlock()` must keep the class held for
// the rest of the function, and a go statement's call runs on another
// goroutine where the caller's held set does not apply.
func inspectLockOps(x ast.Node, visit func(ast.Node)) {
	ast.Inspect(x, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
