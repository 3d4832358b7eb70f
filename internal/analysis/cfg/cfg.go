// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and runs worklist dataflow analyses on them. It is the
// flow-sensitive backbone of januslint (internal/analysis): syntax walks
// can spot a pattern on one line, but the concurrency and lifetime rules
// Janus cares about — a guarded field read before its mutex is locked, a
// goroutine whose blocking receive no cancellation signal can reach, a
// store overwritten before it is read — are properties of paths, and paths
// live here.
//
// The package is stdlib-only (go/ast + go/token), matching the rest of the
// analysis framework. A Graph is intraprocedural: function literals nested
// in a body are opaque expressions; analyze their bodies with their own
// Graph.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block: a maximal straight-line run of AST nodes that
// executes in order, with control transfers only between blocks.
type Block struct {
	// Index is the block's position in Graph.Blocks (creation order);
	// Entry is always index 0 and Exit index 1.
	Index int
	// Label names the block's structural role for tests and debug dumps:
	// "entry", "exit", "if.then", "for.head", "select.comm", ...
	Label string
	// Nodes holds the block's statements, plus loose control expressions
	// evaluated in the block (an if or for condition, a switch tag, a
	// ranged expression). Nodes never contain a statement whose sub-blocks
	// live elsewhere in the graph, so walking every block's Nodes with
	// ast.Inspect visits each executable node exactly once.
	Nodes []ast.Node
	// Range is set on a "range.head" block: the range statement whose
	// iteration the block drives. Its X expression is also in Nodes; its
	// Body is in successor blocks and must not be walked through Range.
	Range *ast.RangeStmt
	// Select is set on a "select.head" block: the select whose comm
	// clauses are this block's successors.
	Select *ast.SelectStmt
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	// Exit is the single synthetic exit: returns, terminating calls
	// (panic, os.Exit, log.Fatal*), and falling off the end all edge here.
	Exit   *Block
	Blocks []*Block
}

// New builds the control-flow graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*Block{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, target)
		} else {
			// Unresolvable goto (malformed source): be conservative.
			b.edge(pg.from, b.g.Exit)
		}
	}
	return b.g
}

// scope is one enclosing breakable/continuable construct.
type scope struct {
	brk   *Block // break target (loop/switch/select join)
	cont  *Block // continue target (loop head or post); nil for switch/select
	label string // non-empty when the construct is labeled
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g        *Graph
	cur      *Block // nil after a terminator, until the next block starts
	scopes   []scope
	labels   map[string]*Block
	gotos    []pendingGoto
	curLabel string // label awaiting its for/range/switch/select
	ftTarget *Block // next case block, inside a switch case body
}

func (b *builder) newBlock(label string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Label: label}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// block returns the current block, opening an unreachable one if control
// cannot arrive here (code after return/break/...). Keeping unreachable
// statements in pred-less blocks lets analyses ignore them naturally.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// takeLabel consumes the pending statement label, if any.
func (b *builder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(b.block(), lb)
		b.cur = lb
		b.labels[s.Label.Name] = lb
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && terminates(call) {
			b.edge(b.cur, b.g.Exit)
			b.cur = nil
		}
	default:
		// Assign, Decl, Defer, Go, Send, IncDec, Empty: straight-line.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.block()
	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	afterThen := b.cur
	var afterElse *Block
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		afterElse = b.cur
	}
	join := b.newBlock("if.join")
	if afterThen != nil {
		b.edge(afterThen, join)
	}
	if s.Else == nil {
		b.edge(cond, join)
	} else if afterElse != nil {
		b.edge(afterElse, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.block(), head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	join := b.newBlock("for.join")
	cont := head
	if s.Post != nil {
		post := b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		cont = post
	}
	if s.Cond != nil {
		b.edge(head, join)
	}
	body := b.newBlock("for.body")
	b.edge(head, body)
	b.scopes = append(b.scopes, scope{brk: join, cont: cont, label: label})
	b.cur = body
	b.stmt(s.Body)
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = join
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.edge(b.block(), head)
	head.Nodes = append(head.Nodes, s.X)
	head.Range = s
	join := b.newBlock("range.join")
	b.edge(head, join) // the range may be empty
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.scopes = append(b.scopes, scope{brk: join, cont: head, label: label})
	b.cur = body
	b.stmt(s.Body)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = join
}

// switchStmt covers both expression switches (tag != nil, fallthrough
// allowed) and type switches (assign != nil).
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.block()
	join := b.newBlock("switch.join")
	cases := body.List
	blocks := make([]*Block, len(cases))
	for i := range cases {
		blocks[i] = b.newBlock("switch.case")
		b.edge(head, blocks[i])
	}
	hasDefault := false
	b.scopes = append(b.scopes, scope{brk: join, label: label})
	savedFT := b.ftTarget
	for i, c := range cases {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
			blocks[i].Label = "switch.default"
		}
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		b.ftTarget = nil
		if i+1 < len(cases) {
			b.ftTarget = blocks[i+1]
		}
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	b.ftTarget = savedFT
	b.scopes = b.scopes[:len(b.scopes)-1]
	if !hasDefault {
		b.edge(head, join)
	}
	b.cur = join
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.newBlock("select.head")
	b.edge(b.block(), head)
	head.Select = s
	join := b.newBlock("select.join")
	b.scopes = append(b.scopes, scope{brk: join, label: label})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		cb := b.newBlock("select.comm")
		b.edge(head, cb)
		if cc.Comm != nil {
			cb.Nodes = append(cb.Nodes, cc.Comm)
		} else {
			cb.Label = "select.default"
		}
		b.cur = cb
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	// A select with no clauses blocks forever: head keeps no successor
	// and join stays unreachable, which is exactly the semantics.
	b.cur = join
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	from := b.cur
	switch s.Tok.String() {
	case "break":
		if t := b.findScope(s.Label, false); t != nil {
			b.edge(from, t.brk)
		}
	case "continue":
		if t := b.findScope(s.Label, true); t != nil {
			b.edge(from, t.cont)
		}
	case "goto":
		b.gotos = append(b.gotos, pendingGoto{from: from, label: s.Label.Name})
	case "fallthrough":
		if b.ftTarget != nil {
			b.edge(from, b.ftTarget)
		}
	}
	b.cur = nil
}

// findScope locates the break/continue target: the innermost scope, or the
// one carrying the branch's label. needCont restricts to loops.
func (b *builder) findScope(label *ast.Ident, needCont bool) *scope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := &b.scopes[i]
		if needCont && sc.cont == nil {
			continue
		}
		if label == nil || sc.label == label.Name {
			return sc
		}
	}
	return nil
}

// terminates reports calls that never return: panic, os.Exit, log.Fatal*.
// The test is syntactic (an analyzer with type info can do better); a
// false negative only adds a spurious edge to the next block.
func terminates(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "log":
			return strings.HasPrefix(fun.Sel.Name, "Fatal")
		case "runtime":
			return fun.Sel.Name == "Goexit"
		}
	}
	return false
}

// Reachable returns the set of blocks reachable from Entry.
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder: every block before its successors, except across back edges.
// This is the canonical iteration order for forward dataflow.
func (g *Graph) ReversePostorder() []*Block {
	seen := map[*Block]bool{}
	var post []*Block
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
		post = append(post, b)
	}
	walk(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// String renders the graph for debugging and structural tests:
// one "index:label -> succIndexes" line per block in creation order.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%d:%s ->", b.Index, b.Label)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " %d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
