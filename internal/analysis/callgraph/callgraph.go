// Package callgraph builds a module-aware call graph over type-checked
// packages, using only the standard library (go/ast + go/types), matching
// the rest of the januslint analysis framework.
//
// Static calls — direct function calls, concrete method calls, qualified
// pkg.F calls, and immediately-invoked function literals — resolve to
// exactly one callee. Dynamic dispatch through an interface method
// resolves with class-hierarchy analysis (CHA): the callee set is every
// package-level named type among the loaded units that implements the
// interface, which is sound over the loaded units. Calls through plain
// function values (a func-typed variable, field, or parameter) resolve to
// every function or literal whose value is taken somewhere in the units
// and whose signature matches the call site. Function literals get their
// own node, linked from their encloser by a Closure edge at the creation
// site; bare references to a function (passing it as an argument, storing
// it in a struct) get a Reference edge, so reachability over all edge
// kinds over-approximates "may run because of".
//
// Soundness limits, by construction:
//   - bodies outside the loaded units (the standard library) are opaque: a
//     callback passed into sort.Slice is linked by its Closure/Reference
//     creation edge, but the stdlib frame between creator and callback is
//     not modeled;
//   - interface implementations living outside the loaded units are
//     invisible to CHA;
//   - generic named types are skipped by CHA, and indirect-call wiring
//     matches instantiated signatures, so a generic function stored in a
//     func value may be missed;
//   - code outside function bodies (package-level var initializers) is not
//     walked.
//
// Clients combine this graph with the intraprocedural cfg package: cfg's
// worklist engine answers flow questions inside one body, and Propagate
// runs the same join-until-fixpoint discipline bottom-up over the
// condensation of this graph.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Unit is one type-checked package to include in the graph.
type Unit struct {
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Kind classifies how an edge's callee is reached from its caller.
type Kind int

const (
	// Static is a direct call of a declared function, a concrete method,
	// or an immediately-invoked function literal.
	Static Kind = iota
	// Interface is dynamic dispatch through an interface method; the
	// callee is one CHA candidate (or the abstract method itself).
	Interface
	// Closure marks the creation site of a function literal that is not
	// immediately invoked: the callee may run whenever the value escapes.
	Closure
	// Reference marks a function used as a value (argument, assignment,
	// stored field) or an indirect call through such a value.
	Reference
	// Go is a call launched in a new goroutine.
	Go
	// Defer is a call deferred to function exit.
	Defer
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case Closure:
		return "closure"
	case Reference:
		return "reference"
	case Go:
		return "go"
	case Defer:
		return "defer"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one function in the graph: a declared function or method
// (possibly external, with no loaded body) or a function literal.
type Node struct {
	// Func is the type-checker object (the generic origin for generic
	// functions); nil for function literals.
	Func *types.Func
	// Lit is set for function-literal nodes.
	Lit *ast.FuncLit
	// Decl is the declaration when it was loaded; nil for function
	// literals and for functions outside the loaded units.
	Decl *ast.FuncDecl
	// Unit is the loaded package owning the body; nil for external nodes.
	Unit *Unit
	Out  []*Edge
	In   []*Edge

	name string
	sig  *types.Signature // receiver-stripped, for indirect-call matching
}

// Body returns the function body, or nil for external (unloaded) nodes.
func (n *Node) Body() *ast.BlockStmt {
	switch {
	case n.Lit != nil:
		return n.Lit.Body
	case n.Decl != nil:
		return n.Decl.Body
	}
	return nil
}

func (n *Node) String() string { return n.name }

// Edge is one caller→callee link.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   Kind
	// Call is set when the edge represents an invocation — including
	// indirect calls through function values — and nil for pure
	// creation/reference edges (Closure at a literal that escapes,
	// Reference at a function used as a value).
	Call *ast.CallExpr
	Pos  token.Pos
}

// Graph is the call graph of a set of units.
type Graph struct {
	Fset  *token.FileSet
	Nodes []*Node

	funcs   map[*types.Func]*Node
	lits    map[*ast.FuncLit]*Node
	callees map[*ast.CallExpr][]*Node
}

// NodeOf returns the node for a declared function or method, or nil. The
// lookup is by generic origin, so instantiated *types.Func values resolve
// to their declaration's node.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.funcs[fn.Origin()]
}

// CalleesAt returns every node the call expression may invoke (the static
// callee, the CHA candidates of an interface call, or the matching
// address-taken functions of an indirect call).
func (g *Graph) CalleesAt(call *ast.CallExpr) []*Node { return g.callees[call] }

// Build constructs the call graph of the units, which must share fset.
func Build(fset *token.FileSet, units []*Unit) *Graph {
	g := &Graph{
		Fset:    fset,
		funcs:   map[*types.Func]*Node{},
		lits:    map[*ast.FuncLit]*Node{},
		callees: map[*ast.CallExpr][]*Node{},
	}
	b := &builder{g: g, taken: map[*Node]bool{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := b.funcNode(fn)
				n.Decl = fd
				n.Unit = u
			}
		}
	}
	b.indexTypes(units)
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				w := &walker{
					b:           b,
					u:           u,
					consumed:    map[*ast.Ident]bool{},
					consumedSel: map[*ast.SelectorExpr]bool{},
					kinds:       map[*ast.CallExpr]Kind{},
					litKinds:    map[*ast.FuncLit]Kind{},
					litCalls:    map[*ast.FuncLit]*ast.CallExpr{},
				}
				w.walk(g.funcs[fn], fd.Body)
			}
		}
	}
	b.wireIndirect()
	return g
}

type callSite struct {
	caller *Node
	call   *ast.CallExpr
	kind   Kind
	sig    *types.Signature
}

type builder struct {
	g        *Graph
	concrete []*types.Named // CHA candidates: package-level non-interface named types
	taken    map[*Node]bool // functions whose value escapes somewhere
	takenSeq []*Node        // same, in deterministic discovery order
	indirect []callSite     // calls through plain function values
}

func (b *builder) funcNode(fn *types.Func) *Node {
	fn = fn.Origin()
	if n, ok := b.g.funcs[fn]; ok {
		return n
	}
	n := &Node{Func: fn, name: fn.FullName(), sig: valueSig(fn.Type().(*types.Signature))}
	b.g.funcs[fn] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *builder) litNode(l *ast.FuncLit, u *Unit) *Node {
	if n, ok := b.g.lits[l]; ok {
		return n
	}
	pos := b.g.Fset.Position(l.Pos())
	n := &Node{Lit: l, Unit: u, name: fmt.Sprintf("func literal at %s:%d", pos.Filename, pos.Line)}
	if tv, ok := u.Info.Types[l]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			n.sig = sig
		}
	}
	b.g.lits[l] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *builder) edge(from, to *Node, kind Kind, call *ast.CallExpr, pos token.Pos) {
	for _, e := range from.Out {
		if e.Callee == to && e.Kind == kind && e.Call == call {
			return
		}
	}
	e := &Edge{Caller: from, Callee: to, Kind: kind, Call: call, Pos: pos}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
	if call != nil {
		for _, c := range b.g.callees[call] {
			if c == to {
				return
			}
		}
		b.g.callees[call] = append(b.g.callees[call], to)
	}
}

// ref records a function escaping as a value: a Reference edge from the
// encloser, and membership in the address-taken set for indirect wiring.
func (b *builder) ref(from, to *Node, pos token.Pos) {
	b.addrTaken(to)
	b.edge(from, to, Reference, nil, pos)
}

func (b *builder) addrTaken(n *Node) {
	if !b.taken[n] {
		b.taken[n] = true
		b.takenSeq = append(b.takenSeq, n)
	}
}

// indexTypes collects the CHA candidate set: every package-level,
// non-generic, non-interface named type of the loaded units.
func (b *builder) indexTypes(units []*Unit) {
	for _, u := range units {
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			b.concrete = append(b.concrete, named)
		}
	}
}

// implementers returns the method named name on every CHA candidate whose
// value or pointer method set satisfies iface.
func (b *builder) implementers(iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, named := range b.concrete {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn.Origin())
		}
	}
	return out
}

// dispatch wires an interface-method call: one edge to the abstract method
// (so the site is represented even with zero candidates) plus one per CHA
// implementer. An enclosing go/defer keeps its kind.
func (b *builder) dispatch(from *Node, m *types.Func, recv types.Type, kind Kind, call *ast.CallExpr, pos token.Pos) {
	if kind == Static {
		kind = Interface
	}
	b.edge(from, b.funcNode(m.Origin()), kind, call, pos)
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, impl := range b.implementers(iface, m.Name()) {
		b.edge(from, b.funcNode(impl), kind, call, pos)
	}
}

// refDispatch wires an interface method used as a value (x.M with x an
// interface): Reference edges to the abstract method and every implementer.
func (b *builder) refDispatch(from *Node, m *types.Func, recv types.Type, pos token.Pos) {
	b.ref(from, b.funcNode(m.Origin()), pos)
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, impl := range b.implementers(iface, m.Name()) {
		b.ref(from, b.funcNode(impl), pos)
	}
}

// wireIndirect connects each call through a plain function value to every
// address-taken function with an identical signature.
func (b *builder) wireIndirect() {
	for _, site := range b.indirect {
		for _, cand := range b.takenSeq {
			if cand.sig != nil && types.Identical(cand.sig, site.sig) {
				b.edge(site.caller, cand, site.kind, site.call, site.call.Pos())
			}
		}
	}
}

// valueSig strips the receiver so method values compare equal to plain
// functions of the same shape.
func valueSig(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// walker wires the edges of one declaration's body (including nested
// function literals, each under its own node).
type walker struct {
	b *builder
	u *Unit
	// consumed marks identifiers already handled as part of a direct call
	// or selector, so the plain-Ident case does not double-report them as
	// references.
	consumed    map[*ast.Ident]bool
	consumedSel map[*ast.SelectorExpr]bool
	// kinds carries go/defer context down to the call expression.
	kinds map[*ast.CallExpr]Kind
	// litKinds/litCalls mark function literals consumed as a call's Fun,
	// so their node gets an invocation edge instead of a Closure edge.
	litKinds map[*ast.FuncLit]Kind
	litCalls map[*ast.FuncLit]*ast.CallExpr
}

func (w *walker) walk(n *Node, body *ast.BlockStmt) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			w.kinds[x.Call] = Go
		case *ast.DeferStmt:
			w.kinds[x.Call] = Defer
		case *ast.FuncLit:
			ln := w.b.litNode(x, w.u)
			if kind, invoked := w.litKinds[x]; invoked {
				w.b.edge(n, ln, kind, w.litCalls[x], x.Pos())
			} else {
				w.b.addrTaken(ln)
				w.b.edge(n, ln, Closure, nil, x.Pos())
			}
			w.walk(ln, x.Body)
			return false
		case *ast.CallExpr:
			w.call(n, x)
		case *ast.SelectorExpr:
			w.selector(n, x)
		case *ast.Ident:
			if !w.consumed[x] {
				if fn, ok := w.u.Info.Uses[x].(*types.Func); ok {
					w.b.ref(n, w.b.funcNode(fn), x.Pos())
				}
			}
		}
		return true
	})
}

// call resolves one call expression. The walk continues into Fun and the
// arguments afterwards; consumed/litKinds prevent double-counting.
func (w *walker) call(n *Node, call *ast.CallExpr) {
	kind := Static
	if k, ok := w.kinds[call]; ok {
		kind = k
	}
	fun := unparen(call.Fun)
	// Strip an explicit generic instantiation f[T](...) down to f. A
	// non-function IndexExpr (map/slice index holding a func value) is an
	// indirect call and falls through to the default case.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if w.isFuncName(ix.X) {
			fun = unparen(ix.X)
		}
	case *ast.IndexListExpr:
		if w.isFuncName(ix.X) {
			fun = unparen(ix.X)
		}
	}

	switch fun := fun.(type) {
	case *ast.FuncLit:
		ln := w.b.litNode(fun, w.u)
		w.litKinds[fun] = kind
		w.litCalls[fun] = call
		_ = ln
		return

	case *ast.Ident:
		w.consumed[fun] = true
		switch obj := w.u.Info.Uses[fun].(type) {
		case *types.Func:
			w.b.edge(n, w.b.funcNode(obj), kind, call, call.Pos())
		case *types.Builtin, *types.TypeName, nil:
			// Builtin call or conversion: no callee.
		case *types.Var:
			w.indirectSite(n, call, kind)
		}
		return

	case *ast.SelectorExpr:
		w.consumed[fun.Sel] = true
		w.consumedSel[fun] = true
		if sel, ok := w.u.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				m, ok := sel.Obj().(*types.Func)
				if !ok {
					return
				}
				if recv := methodRecv(m); recv != nil && types.IsInterface(recv) {
					w.b.dispatch(n, m, sel.Recv(), kind, call, call.Pos())
				} else {
					w.b.edge(n, w.b.funcNode(m), kind, call, call.Pos())
				}
			case types.FieldVal:
				// Func-typed struct field: indirect.
				w.indirectSite(n, call, kind)
			}
			return
		}
		// No selection: a qualified identifier pkg.F or pkg.V.
		switch obj := w.u.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			w.b.edge(n, w.b.funcNode(obj), kind, call, call.Pos())
		case *types.Var:
			w.indirectSite(n, call, kind)
		}
		return

	default:
		// Computed function value (a call returning a func, an indexed
		// func slice, ...): indirect, unless this is a conversion to an
		// unnamed type like []byte(s).
		if tv, ok := w.u.Info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		w.indirectSite(n, call, kind)
	}
}

// selector handles a selector that is not a call's Fun: method values and
// qualified function references used as values.
func (w *walker) selector(n *Node, sel *ast.SelectorExpr) {
	if w.consumedSel[sel] {
		return
	}
	if s, ok := w.u.Info.Selections[sel]; ok {
		switch s.Kind() {
		case types.MethodVal, types.MethodExpr:
			w.consumed[sel.Sel] = true
			m, ok := s.Obj().(*types.Func)
			if !ok {
				return
			}
			if recv := methodRecv(m); recv != nil && types.IsInterface(recv) {
				w.b.refDispatch(n, m, s.Recv(), sel.Pos())
			} else {
				w.b.ref(n, w.b.funcNode(m), sel.Pos())
			}
		}
		return
	}
	if fn, ok := w.u.Info.Uses[sel.Sel].(*types.Func); ok {
		w.consumed[sel.Sel] = true
		w.b.ref(n, w.b.funcNode(fn), sel.Pos())
	}
}

func (w *walker) indirectSite(n *Node, call *ast.CallExpr, kind Kind) {
	tv, ok := w.u.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if kind == Static {
		kind = Reference
	}
	w.b.indirect = append(w.b.indirect, callSite{caller: n, call: call, kind: kind, sig: sig})
}

// isFuncName reports whether the expression names a function or a
// func-typed value (distinguishing generic instantiation from indexing).
func (w *walker) isFuncName(x ast.Expr) bool {
	switch x := unparen(x).(type) {
	case *ast.Ident:
		_, ok := w.u.Info.Uses[x].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := w.u.Info.Uses[x.Sel].(*types.Func)
		return ok
	}
	return false
}

func methodRecv(m *types.Func) types.Type {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
