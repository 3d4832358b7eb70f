// Package ssa layers a pragmatic SSA view on top of the control-flow
// graphs of internal/analysis/cfg: a dominator tree (Cooper-Harvey-
// Kennedy), dominance frontiers, minimal phi placement via iterated
// frontiers, and a renaming pass that yields def-use chains for every
// function-local variable.
//
// It is not a full IR. Values stay AST expressions; only whole-variable
// bindings are tracked (x = ..., x := ..., x++, parameters, range
// variables) — writes through pointers, field updates (x.f = v), and
// element updates (x[i] = v) mutate the bound value without rebinding the
// variable, so they are uses of x, not definitions. Variables whose
// address escapes (&x) or that are captured by a nested function literal
// cannot be tracked soundly and are excluded (Skipped); analyses must
// treat their values as unknown.
//
// The package is stdlib-only, like the rest of the analysis framework.
// The deadstore analyzer built on it (see internal/analysis) walks
// Defs/UseDef instead of re-deriving flow facts.
package ssa

import (
	"go/ast"
	"go/token"
	"go/types"

	"janus/internal/analysis/cfg"
)

// DefKind classifies how a definition binds its variable.
type DefKind int

const (
	// Param is a function parameter, receiver, or named result: bound by
	// the caller before the body runs.
	Param DefKind = iota
	// Zero is a var declaration without an initializer: the variable is
	// bound to its type's zero value.
	Zero
	// Assign is an explicit store: x = v, x := v, x += v, x++, or one
	// position of a tuple assignment x, y := f().
	Assign
	// Range binds a loop variable on each iteration of a range statement.
	Range
	// PhiDef merges definitions where control-flow paths join.
	PhiDef
)

func (k DefKind) String() string {
	switch k {
	case Param:
		return "param"
	case Zero:
		return "zero"
	case Assign:
		return "assign"
	case Range:
		return "range"
	case PhiDef:
		return "phi"
	}
	return "?"
}

// Def is one SSA definition of a variable.
type Def struct {
	// Var is the variable being bound.
	Var *types.Var
	// Kind says how.
	Kind DefKind
	// Block is the basic block holding the definition. Phis sit
	// conceptually at the top of their block, before its Nodes.
	Block *cfg.Block
	// Site is the defining syntax: the *ast.AssignStmt, *ast.ValueSpec,
	// *ast.IncDecStmt, or *ast.RangeStmt; the declaring *ast.Ident for a
	// parameter; nil for a phi.
	Site ast.Node
	// Ident is the defined occurrence of the variable's name at the site
	// (nil for phis and for parameters declared without a body ident).
	Ident *ast.Ident
	// Ops are a phi's operands: the definition reaching the block along
	// each incoming edge. A path on which the variable is not yet defined
	// (declared in a sibling branch) contributes no operand; Incomplete is
	// set instead.
	Ops []*Def
	// Incomplete marks a phi missing an operand for at least one incoming
	// path (see Ops). Analyses must treat its value as unknown.
	Incomplete bool
	// Uses are the identifier occurrences whose value this definition
	// supplies.
	Uses []*ast.Ident
	// PhiUses are the phis this definition feeds as an operand.
	PhiUses []*Def
}

// Unused reports whether nothing reads this definition — no identifier use
// and no phi operand.
func (d *Def) Unused() bool { return len(d.Uses) == 0 && len(d.PhiUses) == 0 }

// Func is the SSA view of one function body.
type Func struct {
	Graph *cfg.Graph
	Dom   *DomTree
	// Defs holds every definition of every tracked variable, in block
	// creation order, phis first within a block.
	Defs []*Def
	// Phis lists the phi definitions placed at the head of each block.
	Phis map[*cfg.Block][]*Def
	// UseDef maps each use occurrence of a tracked variable to the
	// definition reaching it.
	UseDef map[*ast.Ident]*Def
	// Skipped holds the variables excluded from tracking: address taken,
	// captured by a function literal, or bound by a type switch.
	Skipped map[*types.Var]bool

	info *types.Info
}

// Build constructs the SSA view of one function body. typ is the
// function's type (for parameters and named results) and recv its receiver
// list; both may be nil (recv always is for function literals).
func Build(info *types.Info, typ *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) *Func {
	g := cfg.New(body)
	fn := &Func{
		Graph:   g,
		Dom:     Dominators(g),
		Phis:    map[*cfg.Block][]*Def{},
		UseDef:  map[*ast.Ident]*Def{},
		Skipped: map[*types.Var]bool{},
		info:    info,
	}
	tracked := fn.collectVars(typ, recv, body)

	b := &ssaBuilder{fn: fn, tracked: tracked, items: map[*cfg.Block][]item{}}
	b.paramDefs(typ, recv)
	for _, blk := range g.Blocks {
		if !fn.Dom.Reachable(blk) {
			continue
		}
		for _, n := range blk.Nodes {
			b.cur = blk
			b.node(n)
		}
		if r := blk.Range; r != nil {
			// The key/value bindings happen on the head→body edge, once
			// per iteration — not when the head decides the range is
			// exhausted. Attach them to the top of the body block so an
			// empty range correctly leaves the prior definitions reaching
			// the join.
			for _, s := range blk.Succs {
				if s.Label == "range.body" {
					b.cur = s
					b.rangeVars(r)
					break
				}
			}
		}
	}
	b.placePhis()
	b.rename()
	fn.pruneDeadPhis()
	return fn
}

// pruneDeadPhis removes phis nothing reads, to a fixpoint. Minimal phi
// placement is liveness-blind: a variable whose scope ends inside a branch
// still gets a phi at the branch's dominance-frontier join (often the
// exit). Such phis have no uses and carry no information; dropping them
// keeps Defs and the operand defs' PhiUses honest.
func (fn *Func) pruneDeadPhis() {
	for {
		removed := false
		for _, d := range fn.Defs {
			if d.Kind != PhiDef || !d.Unused() {
				continue
			}
			removed = true
			for _, op := range d.Ops {
				op.PhiUses = deleteDef(op.PhiUses, d)
			}
			fn.Phis[d.Block] = deleteDef(fn.Phis[d.Block], d)
			if len(fn.Phis[d.Block]) == 0 {
				delete(fn.Phis, d.Block)
			}
			fn.Defs = deleteDef(fn.Defs, d)
			break // Defs changed under us; rescan
		}
		if !removed {
			return
		}
	}
}

func deleteDef(s []*Def, d *Def) []*Def {
	for i, x := range s {
		if x == d {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}

// item is one ordered event inside a block: a use of a tracked variable or
// a definition. The renaming pass replays items in program order.
type item struct {
	use *ast.Ident // set for uses
	def *Def       // set for defs
}

type ssaBuilder struct {
	fn      *Func
	tracked map[*types.Var]bool
	cur     *cfg.Block
	items   map[*cfg.Block][]item
	// pendingUses collects uses seen while walking the right-hand side of
	// an assignment, so they can be attributed before the assignment's own
	// defs in program order.
}

// collectVars gathers the function-local variables SSA can track and marks
// the ones it must skip. A variable is skippable for three reasons: its
// address is taken with &x (it can be rebound through the pointer), it is
// referenced inside a nested function literal (the closure may read or
// write it at unknown times), or it is a type-switch binding (one distinct
// object per clause, bound implicitly).
func (fn *Func) collectVars(typ *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) map[*types.Var]bool {
	tracked := map[*types.Var]bool{}
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := fn.info.Defs[name].(*types.Var); ok {
					tracked[v] = true
				}
			}
		}
	}
	addField(recv)
	if typ != nil {
		addField(typ.Params)
		addField(typ.Results)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := fn.info.Defs[id].(*types.Var); ok {
				tracked[v] = true
			}
		}
		return true
	})
	// Exclusions: &x anywhere in the body, any reference from inside a
	// function literal, and type-switch bindings (implicit objects).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					if v, ok := fn.info.Uses[id].(*types.Var); ok {
						fn.Skipped[v] = true
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := fn.info.Uses[id].(*types.Var); ok && tracked[v] {
						fn.Skipped[v] = true
					}
					if v, ok := fn.info.Defs[id].(*types.Var); ok && tracked[v] {
						fn.Skipped[v] = true
					}
				}
				return true
			})
			return false
		case *ast.TypeSwitchStmt:
			for _, obj := range fn.info.Implicits {
				if v, ok := obj.(*types.Var); ok {
					fn.Skipped[v] = true
				}
			}
		}
		return true
	})
	for v := range fn.Skipped {
		delete(tracked, v)
	}
	return tracked
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

// paramDefs seeds the entry block with definitions for the receiver,
// parameters, and named results.
func (b *ssaBuilder) paramDefs(typ *ast.FuncType, recv *ast.FieldList) {
	b.cur = b.fn.Graph.Entry
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := b.fn.info.Defs[name].(*types.Var); ok && b.tracked[v] {
					b.emitDef(&Def{Var: v, Kind: Param, Site: name, Ident: name})
				}
			}
		}
	}
	add(recv)
	if typ != nil {
		add(typ.Params)
		add(typ.Results)
	}
}

func (b *ssaBuilder) emitDef(d *Def) {
	d.Block = b.cur
	b.fn.Defs = append(b.fn.Defs, d)
	b.items[b.cur] = append(b.items[b.cur], item{def: d})
}

func (b *ssaBuilder) emitUse(id *ast.Ident) {
	b.items[b.cur] = append(b.items[b.cur], item{use: id})
}

// varOf resolves an identifier to a tracked variable, or nil.
func (b *ssaBuilder) varOf(id *ast.Ident) *types.Var {
	obj := b.fn.info.Uses[id]
	if obj == nil {
		obj = b.fn.info.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok && b.tracked[v] {
		return v
	}
	return nil
}

// uses walks an expression (or statement) collecting uses of tracked
// variables in source order, skipping nested function literals (their
// references are already excluded from tracking).
func (b *ssaBuilder) uses(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if b.varOf(m) != nil {
				b.emitUse(m)
			}
		}
		return true
	})
}

// node records one block node's uses and definitions in program order:
// right-hand sides before the stores they feed, an IncDec's read before
// its write.
func (b *ssaBuilder) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		b.assign(n)
	case *ast.DeclStmt:
		b.decl(n)
	case *ast.IncDecStmt:
		if id, ok := unparen(n.X).(*ast.Ident); ok {
			if v := b.varOf(id); v != nil {
				b.emitUse(id)
				b.emitDef(&Def{Var: v, Kind: Assign, Site: n, Ident: id})
				return
			}
		}
		b.uses(n)
	case *ast.ExprStmt, *ast.ReturnStmt, *ast.SendStmt, *ast.GoStmt,
		*ast.DeferStmt, *ast.BranchStmt:
		b.uses(n)
	case ast.Stmt:
		b.uses(n)
	case ast.Expr:
		b.uses(n)
	}
}

// assign handles every AssignStmt shape: plain stores, :=, compound
// assignment, and tuple assignment. Non-identifier left-hand sides
// (x.f = v, x[i] = v, *p = v) do not rebind a variable: their component
// expressions are uses.
func (b *ssaBuilder) assign(n *ast.AssignStmt) {
	// Right-hand side values are evaluated first.
	for _, rhs := range n.Rhs {
		b.uses(rhs)
	}
	// Compound assignment (x += v) also reads the left-hand side.
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		for _, lhs := range n.Lhs {
			b.uses(lhs)
		}
	}
	for _, lhs := range n.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			// x.f = v, x[i] = v, *p = v: the path expression is a use.
			if n.Tok == token.ASSIGN {
				b.uses(lhs)
			}
			continue
		}
		if id.Name == "_" {
			continue
		}
		v := b.varOf(id)
		if v == nil {
			continue
		}
		b.emitDef(&Def{Var: v, Kind: Assign, Site: n, Ident: id})
	}
}

// decl handles var declarations in statement position: initialized specs
// are Assign defs, uninitialized ones Zero defs.
func (b *ssaBuilder) decl(n *ast.DeclStmt) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		b.uses(n)
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			b.uses(val)
		}
		for _, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			v := b.varOf(name)
			if v == nil {
				continue
			}
			d := &Def{Var: v, Kind: Assign, Site: vs, Ident: name}
			if len(vs.Values) == 0 {
				d.Kind = Zero
			}
			b.emitDef(d)
		}
	}
}

// rangeVars records the per-iteration bindings of a range statement on its
// head block (the ranged expression's uses are already in the block's
// Nodes walk).
func (b *ssaBuilder) rangeVars(r *ast.RangeStmt) {
	bind := func(e ast.Expr) {
		if e == nil {
			return
		}
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			if r.Tok == token.ASSIGN {
				b.uses(e)
			}
			return
		}
		if id.Name == "_" {
			return
		}
		if v := b.varOf(id); v != nil {
			b.emitDef(&Def{Var: v, Kind: Range, Site: r, Ident: id})
		}
	}
	bind(r.Key)
	bind(r.Value)
}

// placePhis inserts minimal phis with the iterated-dominance-frontier
// worklist: for each variable, a phi lands in every frontier block of its
// definition blocks, transitively.
func (b *ssaBuilder) placePhis() {
	df := b.fn.Dom.Frontier()
	defBlocks := map[*types.Var][]*cfg.Block{}
	seenIn := map[*types.Var]map[*cfg.Block]bool{}
	for _, d := range b.fn.Defs {
		if seenIn[d.Var] == nil {
			seenIn[d.Var] = map[*cfg.Block]bool{}
		}
		if !seenIn[d.Var][d.Block] {
			seenIn[d.Var][d.Block] = true
			defBlocks[d.Var] = append(defBlocks[d.Var], d.Block)
		}
	}
	// Deterministic variable order: by first definition.
	var vars []*types.Var
	inVars := map[*types.Var]bool{}
	for _, d := range b.fn.Defs {
		if !inVars[d.Var] {
			inVars[d.Var] = true
			vars = append(vars, d.Var)
		}
	}
	for _, v := range vars {
		hasPhi := map[*cfg.Block]bool{}
		work := append([]*cfg.Block(nil), defBlocks[v]...)
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range df[blk] {
				if hasPhi[f] {
					continue
				}
				hasPhi[f] = true
				phi := &Def{Var: v, Kind: PhiDef, Block: f}
				b.fn.Phis[f] = append(b.fn.Phis[f], phi)
				b.fn.Defs = append(b.fn.Defs, phi)
				if !seenIn[v][f] {
					seenIn[v][f] = true
					work = append(work, f)
				}
			}
		}
	}
}

// rename walks the dominator tree with a definition stack per variable,
// resolving each use to its reaching definition and wiring phi operands
// along control-flow edges.
func (b *ssaBuilder) rename() {
	stacks := map[*types.Var][]*Def{}
	top := func(v *types.Var) *Def {
		s := stacks[v]
		if len(s) == 0 {
			return nil
		}
		return s[len(s)-1]
	}
	var visit func(blk *cfg.Block)
	visit = func(blk *cfg.Block) {
		pushed := 0
		var order []*types.Var
		push := func(d *Def) {
			stacks[d.Var] = append(stacks[d.Var], d)
			order = append(order, d.Var)
			pushed++
		}
		for _, phi := range b.fn.Phis[blk] {
			push(phi)
		}
		for _, it := range b.items[blk] {
			if it.use != nil {
				v := b.varOf(it.use)
				if v == nil {
					continue
				}
				if d := top(v); d != nil {
					b.fn.UseDef[it.use] = d
					d.Uses = append(d.Uses, it.use)
				}
				continue
			}
			push(it.def)
		}
		for _, s := range blk.Succs {
			for _, phi := range b.fn.Phis[s] {
				if d := top(phi.Var); d != nil {
					phi.Ops = append(phi.Ops, d)
					d.PhiUses = append(d.PhiUses, phi)
				} else {
					phi.Incomplete = true
				}
			}
		}
		for _, c := range b.fn.Dom.Children(blk) {
			visit(c)
		}
		for i := 0; i < pushed; i++ {
			v := order[len(order)-1-i]
			stacks[v] = stacks[v][:len(stacks[v])-1]
		}
	}
	visit(b.fn.Graph.Entry)
}

// Live computes definition liveness with a dead-code-elimination style
// mark phase. A definition is live when some use of it sits outside the
// right-hand side of a tracked store (a condition, a call argument, a
// return, an element write...), or when a live store or live phi consumes
// it. An Assign whose value only feeds dead stores and dead phis is a dead
// store even though Unused() is false for it.
func (fn *Func) Live() map[*Def]bool {
	// Attribute each use ident to the defs of the statement whose RHS
	// contains it, if that statement is itself a tracked def site.
	siteDefs := map[ast.Node][]*Def{}
	for _, d := range fn.Defs {
		if d.Kind == Assign && d.Site != nil {
			siteDefs[d.Site] = append(siteDefs[d.Site], d)
		}
	}
	useWithin := map[*ast.Ident][]*Def{}
	for site, defs := range siteDefs {
		var exprs []ast.Node
		switch s := site.(type) {
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				exprs = append(exprs, r)
			}
			// A compound assignment (x += y) reads its left-hand side to
			// feed the store, so that read belongs to the store too — a
			// dead x += y must not keep its own input alive.
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				for _, l := range s.Lhs {
					exprs = append(exprs, l)
				}
			}
		case *ast.ValueSpec:
			for _, v := range s.Values {
				exprs = append(exprs, v)
			}
		case *ast.IncDecStmt:
			// x++ reads x only to feed its own store.
			exprs = append(exprs, s.X)
		}
		for _, e := range exprs {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if _, tracked := fn.UseDef[id]; tracked {
						useWithin[id] = append(useWithin[id], defs...)
					}
				}
				return true
			})
		}
	}

	live := map[*Def]bool{}
	var work []*Def
	mark := func(d *Def) {
		if d != nil && !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	// Seed: uses outside any tracked store's RHS keep their def live.
	for id, d := range fn.UseDef {
		if len(useWithin[id]) == 0 {
			mark(d)
		}
	}
	// Propagate: a live store or phi keeps its inputs live; a store's RHS
	// uses come alive when the store does.
	rhsUses := map[*Def][]*Def{}
	for id, defs := range useWithin {
		src := fn.UseDef[id]
		for _, d := range defs {
			rhsUses[d] = append(rhsUses[d], src)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, op := range d.Ops {
			mark(op)
		}
		for _, src := range rhsUses[d] {
			mark(src)
		}
	}
	return live
}
