package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a function body (statements only) and builds its graph.
func buildCFG(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(f.Decls[0].(*ast.FuncDecl).Body)
}

// byLabel returns the blocks carrying the label, in creation order.
func byLabel(g *Graph, label string) []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Label == label {
			out = append(out, b)
		}
	}
	return out
}

// one fails the test unless exactly one block has the label.
func one(t *testing.T, g *Graph, label string) *Block {
	t.Helper()
	bs := byLabel(g, label)
	if len(bs) != 1 {
		t.Fatalf("blocks labeled %q = %d, want 1\n%s", label, len(bs), g)
	}
	return bs[0]
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func wantEdge(t *testing.T, g *Graph, from, to *Block) {
	t.Helper()
	if !hasEdge(from, to) {
		t.Errorf("missing edge %d:%s -> %d:%s\n%s", from.Index, from.Label, to.Index, to.Label, g)
	}
}

// wantDump pins the whole graph: every block and every edge, so no loop
// edge can appear or vanish unnoticed.
func wantDump(t *testing.T, g *Graph, want string) {
	t.Helper()
	if got := g.String(); got != want {
		t.Errorf("graph dump:\n%swant:\n%s", got, want)
	}
}

func TestIfElseDiamond(t *testing.T) {
	g := buildCFG(t, "if c {\na()\n} else {\nb()\n}\nd()")
	then, els, join := one(t, g, "if.then"), one(t, g, "if.else"), one(t, g, "if.join")
	wantEdge(t, g, g.Entry, then)
	wantEdge(t, g, g.Entry, els)
	wantEdge(t, g, then, join)
	wantEdge(t, g, els, join)
	wantEdge(t, g, join, g.Exit)
	if hasEdge(g.Entry, join) {
		t.Errorf("if with else must not edge cond -> join\n%s", g)
	}
	if len(join.Nodes) != 1 {
		t.Errorf("join nodes = %d, want 1 (the d() call)", len(join.Nodes))
	}
	rpo := g.ReversePostorder()
	if rpo[0] != g.Entry || rpo[len(rpo)-1] != g.Exit {
		t.Errorf("RPO must start at entry and end at exit for a diamond:\n%s", g)
	}
	wantDump(t, g, "0:entry -> 2 3\n1:exit ->\n2:if.then -> 4\n3:if.else -> 4\n4:if.join -> 1\n")
}

func TestIfWithoutElse(t *testing.T) {
	g := buildCFG(t, "if c {\na()\n}\nb()")
	join := one(t, g, "if.join")
	wantEdge(t, g, g.Entry, join) // the false path skips the then block
	wantEdge(t, g, one(t, g, "if.then"), join)
}

func TestForLoopShape(t *testing.T) {
	g := buildCFG(t, "for i := 0; i < n; i++ {\nwork()\n}\nafter()")
	head, body, post, join := one(t, g, "for.head"), one(t, g, "for.body"), one(t, g, "for.post"), one(t, g, "for.join")
	wantEdge(t, g, g.Entry, head)
	wantEdge(t, g, head, body)
	wantEdge(t, g, head, join)
	wantEdge(t, g, body, post)
	wantEdge(t, g, post, head)
	// The only loop-closing edge is post -> head.
	wantDump(t, g, "0:entry -> 2\n1:exit ->\n2:for.head -> 3 5\n3:for.join -> 1\n4:for.post -> 2\n5:for.body -> 4\n")
}

func TestForBreakContinue(t *testing.T) {
	g := buildCFG(t, "for {\nif c {\nbreak\n}\nif d {\ncontinue\n}\nwork()\n}\nafter()")
	head, join := one(t, g, "for.head"), one(t, g, "for.join")
	// Infinite loop: head must not edge to join; only break reaches it.
	if hasEdge(head, join) {
		t.Errorf("condition-less for must not fall through to join\n%s", g)
	}
	if len(join.Preds) != 1 {
		t.Errorf("join preds = %d, want 1 (the break)\n%s", len(join.Preds), g)
	}
	// The continue edge targets the head directly (no post statement).
	found := false
	for _, p := range head.Preds {
		if p != g.Entry && p.Label != "for.body" && hasEdge(p, head) {
			found = true
		}
	}
	if !found {
		t.Errorf("continue should add a head predecessor\n%s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := buildCFG(t, "outer:\nfor {\nfor {\nbreak outer\n}\n}\nafter()")
	joins := byLabel(g, "for.join")
	if len(joins) != 2 {
		t.Fatalf("for.join blocks = %d, want 2\n%s", len(joins), g)
	}
	// The labeled (outer) join is created first and must be the break's
	// target; the inner join must be unreachable.
	outer, inner := joins[0], joins[1]
	if len(outer.Preds) != 1 {
		t.Errorf("outer join preds = %d, want 1 (break outer)\n%s", len(outer.Preds), g)
	}
	if len(inner.Preds) != 0 {
		t.Errorf("inner join should be unreachable, has %d preds\n%s", len(inner.Preds), g)
	}
}

func TestRangeShape(t *testing.T) {
	g := buildCFG(t, "for _, v := range xs {\nuse(v)\n}")
	head, body, join := one(t, g, "range.head"), one(t, g, "range.body"), one(t, g, "range.join")
	if head.Range == nil {
		t.Error("range head must carry the RangeStmt")
	}
	wantEdge(t, g, head, body)
	wantEdge(t, g, head, join)
	wantEdge(t, g, body, head)
	wantDump(t, g, "0:entry -> 2\n1:exit ->\n2:range.head -> 3 4\n3:range.join -> 1\n4:range.body -> 2\n")
}

func TestSwitchShape(t *testing.T) {
	g := buildCFG(t, "switch x {\ncase 1:\na()\nfallthrough\ncase 2:\nb()\ndefault:\nc()\n}\nafter()")
	cases := byLabel(g, "switch.case")
	def := one(t, g, "switch.default")
	join := one(t, g, "switch.join")
	if len(cases) != 2 {
		t.Fatalf("case blocks = %d, want 2\n%s", len(cases), g)
	}
	for _, cb := range cases {
		wantEdge(t, g, g.Entry, cb)
	}
	wantEdge(t, g, g.Entry, def)
	wantEdge(t, g, cases[0], cases[1]) // fallthrough
	wantEdge(t, g, cases[1], join)
	wantEdge(t, g, def, join)
	if hasEdge(g.Entry, join) {
		t.Errorf("switch with default must not edge head -> join\n%s", g)
	}
}

func TestSwitchNoDefault(t *testing.T) {
	g := buildCFG(t, "switch x {\ncase 1:\na()\n}")
	join := one(t, g, "switch.join")
	wantEdge(t, g, g.Entry, join) // no default: the switch may match nothing
}

func TestSelectShape(t *testing.T) {
	g := buildCFG(t, "select {\ncase <-ch:\na()\ncase out <- v:\nb()\n}")
	head := one(t, g, "select.head")
	comms := byLabel(g, "select.comm")
	if head.Select == nil {
		t.Error("select head must carry the SelectStmt")
	}
	if len(comms) != 2 || len(head.Succs) != 2 {
		t.Fatalf("comm blocks = %d, head succs = %d, want 2 and 2\n%s", len(comms), len(head.Succs), g)
	}
	for _, cb := range comms {
		if len(cb.Nodes) == 0 {
			t.Errorf("comm block must start with its comm statement\n%s", g)
		}
	}
}

func TestSelectWithDefault(t *testing.T) {
	g := buildCFG(t, "select {\ncase <-ch:\na()\ndefault:\n}")
	head := one(t, g, "select.head")
	def := one(t, g, "select.default")
	wantEdge(t, g, head, def)
}

func TestReturnAndUnreachable(t *testing.T) {
	g := buildCFG(t, "a()\nreturn\nb()")
	if !hasEdge(g.Entry, g.Exit) {
		t.Errorf("return must edge to exit\n%s", g)
	}
	dead := byLabel(g, "unreachable")
	if len(dead) != 1 || len(dead[0].Preds) != 0 {
		t.Errorf("statements after return must land in a pred-less block\n%s", g)
	}
	if g.Reachable()[dead[0]] {
		t.Errorf("unreachable block is reachable\n%s", g)
	}
}

func TestPanicTerminates(t *testing.T) {
	g := buildCFG(t, "if c {\npanic(\"x\")\n}\nb()")
	then := one(t, g, "if.then")
	wantEdge(t, g, then, g.Exit)
	if hasEdge(then, one(t, g, "if.join")) {
		t.Errorf("panic must not fall through to join\n%s", g)
	}
}

func TestGoto(t *testing.T) {
	g := buildCFG(t, "a()\ngoto done\nb()\ndone:\nc()")
	lbl := one(t, g, "label.done")
	wantEdge(t, g, g.Entry, lbl)
}

// callNames collects the called identifiers in a block's nodes.
func callNames(b *Block) map[string]bool {
	names := map[string]bool{}
	for _, n := range b.Nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					names[id.Name] = true
				}
			}
			return true
		})
	}
	return names
}

// TestFixpointForward runs a may-analysis ("which calls may have executed
// before this point") across a loop and checks convergence and the facts.
func TestFixpointForward(t *testing.T) {
	g := buildCFG(t, "a()\nfor c {\nb()\n}\nd()")
	in := Fixpoint(g, Analysis[map[string]bool]{
		Dir:      Forward,
		Boundary: map[string]bool{},
		Bottom:   func() map[string]bool { return nil },
		Join:     Union[string],
		Equal:    EqualSets[string],
		Transfer: func(b *Block, in map[string]bool) map[string]bool {
			return Union(in, callNames(b))
		},
	})
	atExit := in[g.Exit]
	for _, want := range []string{"a", "b", "d"} {
		if !atExit[want] {
			t.Errorf("exit fact missing %q: %v", want, atExit)
		}
	}
	head := one(t, g, "for.head")
	if !in[head]["b"] {
		t.Errorf("loop head fact must include b via the back edge: %v", in[head])
	}
	if in[head]["d"] {
		t.Errorf("loop head fact must not include the post-loop d: %v", in[head])
	}
}

// TestFixpointBackward checks the backward direction: which calls may
// still execute after a point.
func TestFixpointBackward(t *testing.T) {
	g := buildCFG(t, "if c {\na()\n} else {\nb()\n}")
	in := Fixpoint(g, Analysis[map[string]bool]{
		Dir:      Backward,
		Boundary: map[string]bool{},
		Bottom:   func() map[string]bool { return nil },
		Join:     Union[string],
		Equal:    EqualSets[string],
		Transfer: func(b *Block, in map[string]bool) map[string]bool {
			return Union(in, callNames(b))
		},
	})
	atEntry := in[g.Entry]
	if !atEntry["a"] || !atEntry["b"] {
		t.Errorf("entry fact must reach both branches' calls: %v", atEntry)
	}
}

func TestStringDump(t *testing.T) {
	g := buildCFG(t, "a()")
	s := g.String()
	if !strings.Contains(s, "0:entry") || !strings.Contains(s, "1:exit") {
		t.Errorf("dump missing entry/exit: %q", s)
	}
}

// buildCFGSrc parses a complete file and builds the CFG of its first
// function declaration — needed for signatures buildCFG's fixed wrapper
// cannot express, like generic functions.
func buildCFGSrc(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(f.Decls[0].(*ast.FuncDecl).Body)
}

// TestLabeledContinueAcrossNestedLoops checks that `continue outer` from
// the inner loop targets the outer loop's post block (not the inner head)
// and that `break outer` targets the outer join (not the inner one).
func TestLabeledContinueAcrossNestedLoops(t *testing.T) {
	g := buildCFG(t, "outer:\nfor i := 0; i < n; i++ {\nfor {\nif c {\ncontinue outer\n}\nif d {\nbreak outer\n}\nwork()\n}\n}\nafter()")
	post := one(t, g, "for.post") // only the outer loop has a post statement
	heads := byLabel(g, "for.head")
	joins := byLabel(g, "for.join")
	if len(heads) != 2 || len(joins) != 2 {
		t.Fatalf("for.head/for.join = %d/%d, want 2/2\n%s", len(heads), len(joins), g)
	}
	outerHead, innerHead := heads[0], heads[1]
	outerJoin, innerJoin := joins[0], joins[1]

	// continue outer must land on the outer post, bypassing the inner head.
	contFrom := 0
	for _, p := range post.Preds {
		if p.Label == "if.then" {
			contFrom++
			if hasEdge(p, innerHead) {
				t.Errorf("continue outer must not edge to the inner head\n%s", g)
			}
		}
	}
	if contFrom != 1 {
		t.Errorf("outer post should have exactly one if.then pred (the continue), got %d\n%s", contFrom, g)
	}
	wantEdge(t, g, post, outerHead)

	// break outer reaches the outer join; the inner join is unreachable
	// (the inner loop has no condition and no plain break).
	breakFrom := 0
	for _, p := range outerJoin.Preds {
		if p.Label == "if.then" {
			breakFrom++
		}
	}
	if breakFrom != 1 {
		t.Errorf("outer join should have exactly one if.then pred (the break), got %d\n%s", breakFrom, g)
	}
	if len(innerJoin.Preds) != 0 {
		t.Errorf("inner join should be unreachable, has %d preds\n%s", len(innerJoin.Preds), g)
	}

	// Loop edges: the outer post closes the outer loop, the inner body's
	// fallthrough closes the inner one, and both joins leave their loops.
	wantDump(t, g, `0:entry -> 2
1:exit ->
2:label.outer -> 3
3:for.head -> 4 6
4:for.join -> 1
5:for.post -> 3
6:for.body -> 7
7:for.head -> 9
8:for.join -> 5
9:for.body -> 10 11
10:if.then -> 5
11:if.join -> 12 13
12:if.then -> 4
13:if.join -> 7
`)
}

// TestGotoOverDeclaration jumps forward over a variable declaration: the
// skipped statements form an unreachable block and the label block is
// entered straight from the goto.
func TestGotoOverDeclaration(t *testing.T) {
	g := buildCFG(t, "a()\ngoto skip\nvar x = f()\nuse(x)\nskip:\nc()")
	lbl := one(t, g, "label.skip")
	wantEdge(t, g, g.Entry, lbl)
	// The declaration lives in a block with no predecessors but still
	// falls through into the label, so its nodes remain in the graph.
	var declBlock *Block
	for _, b := range g.Blocks {
		if b == g.Entry || b == g.Exit || b == lbl {
			continue
		}
		if len(b.Nodes) > 0 {
			declBlock = b
		}
	}
	if declBlock == nil {
		t.Fatalf("skipped declaration block missing\n%s", g)
	}
	if len(declBlock.Preds) != 0 {
		t.Errorf("skipped declaration block should be unreachable, has %d preds\n%s", len(declBlock.Preds), g)
	}
	wantEdge(t, g, declBlock, lbl)
}

// TestGotoBackwardLoop checks that a backward goto forms a proper loop:
// the goto edge closes it at the label block, and the entry stays outside.
func TestGotoBackwardLoop(t *testing.T) {
	g := buildCFG(t, "top:\nwork()\nif c {\ngoto top\n}\ndone()")
	lbl := one(t, g, "label.top")
	then := one(t, g, "if.then")
	wantEdge(t, g, then, lbl)
	wantDump(t, g, "0:entry -> 2\n1:exit ->\n2:label.top -> 3 4\n3:if.then -> 2\n4:if.join -> 1\n")
}

// TestGotoIntoBranch jumps from one arm of an if into a label in the
// fallthrough code — the join keeps both the structured and the goto
// predecessor.
func TestGotoIntoBranch(t *testing.T) {
	g := buildCFG(t, "if c {\ngoto done\n}\nb()\ndone:\nc()")
	lbl := one(t, g, "label.done")
	then := one(t, g, "if.then")
	wantEdge(t, g, then, lbl)
	if len(lbl.Preds) < 2 {
		t.Errorf("label.done needs both the goto and the fallthrough pred, got %d\n%s", len(lbl.Preds), g)
	}
}

// TestGenericFunctionBody builds the CFG of a type-parameterized function:
// type parameters live in the signature, so the body must produce the same
// range-loop shape as a monomorphic function.
func TestGenericFunctionBody(t *testing.T) {
	g := buildCFGSrc(t, `package p

func Map[T any, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}
`)
	head, body, join := one(t, g, "range.head"), one(t, g, "range.body"), one(t, g, "range.join")
	wantEdge(t, g, head, body)
	wantEdge(t, g, head, join)
	wantEdge(t, g, body, head)
	// The only loop-closing edge is body -> head.
	wantDump(t, g, "0:entry -> 2\n1:exit ->\n2:range.head -> 3 4\n3:range.join -> 1\n4:range.body -> 2\n")
	if len(g.Exit.Preds) == 0 {
		t.Errorf("return must reach exit\n%s", g)
	}
}

// TestGenericSwitchBody: a generic function whose body is a type switch on
// a type-parameter value boxed in any — each case becomes a switch.case
// block exactly as in monomorphic code.
func TestGenericSwitchBody(t *testing.T) {
	g := buildCFGSrc(t, `package p

func Kind[T any](v T) string {
	switch any(v).(type) {
	case int:
		return "int"
	case string:
		return "string"
	default:
		return "other"
	}
}
`)
	cases := byLabel(g, "switch.case")
	if len(cases) != 2 {
		t.Fatalf("switch.case blocks = %d, want 2\n%s", len(cases), g)
	}
	cases = append(cases, one(t, g, "switch.default"))
	for _, c := range cases {
		if !hasEdge(c, g.Exit) {
			t.Errorf("every case returns, so each must edge to exit\n%s", g)
		}
	}
	wantDump(t, g, "0:entry -> 3 4 5\n1:exit ->\n2:switch.join -> 1\n3:switch.case -> 1\n4:switch.case -> 1\n5:switch.default -> 1\n")
}
