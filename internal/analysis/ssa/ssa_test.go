package ssa

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"janus/internal/analysis/cfg"
)

// buildFunc type-checks a file and builds the SSA view of the function
// named fn.
func buildFunc(t *testing.T, src, fn string) (*Func, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn || fd.Body == nil {
			continue
		}
		return Build(info, fd.Type, fd.Recv, fd.Body), info
	}
	t.Fatalf("no function %q", fn)
	return nil, nil
}

// phisOf returns the phis for the variable named v, in placement order.
func phisOf(f *Func, v string) []*Def {
	var out []*Def
	for _, d := range f.Defs {
		if d.Kind == PhiDef && d.Var.Name() == v {
			out = append(out, d)
		}
	}
	return out
}

// defsOf returns the non-phi defs for the variable named v.
func defsOf(f *Func, v string) []*Def {
	var out []*Def
	for _, d := range f.Defs {
		if d.Kind != PhiDef && d.Var.Name() == v {
			out = append(out, d)
		}
	}
	return out
}

func TestDominatorsDiamond(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`, "f")
	g := f.Graph
	// Entry dominates everything reachable; the join is dominated by the
	// condition block, not by either branch.
	var join *cfg.Block
	for _, b := range g.Blocks {
		if b.Label == "if.join" {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no if.join block")
	}
	cond := f.Dom.Idom(join)
	if cond == nil {
		t.Fatal("the join must have an idom")
	}
	for _, b := range g.Blocks {
		if b.Label == "if.then" || b.Label == "if.else" {
			// Both branches hang off the join's idom, so neither
			// dominates the join.
			if f.Dom.Idom(b) != cond {
				t.Errorf("%s idom = %v, want the join's idom %v", b.Label, f.Dom.Idom(b), cond)
			}
		}
	}
	if f.Dom.Idom(g.Entry) != nil {
		t.Error("entry idom must be nil")
	}
}

// TestPhiBothBranches: x assigned in both arms of an if needs exactly one
// phi, at the join, with two operands.
func TestPhiBothBranches(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`, "f")
	phis := phisOf(f, "x")
	if len(phis) != 1 {
		t.Fatalf("phis for x = %d, want 1", len(phis))
	}
	phi := phis[0]
	if phi.Block.Label != "if.join" {
		t.Errorf("phi block = %s, want if.join", phi.Block.Label)
	}
	if len(phi.Ops) != 2 || phi.Incomplete {
		t.Fatalf("phi ops = %d (incomplete=%v), want 2 complete", len(phi.Ops), phi.Incomplete)
	}
	// The phi's operands are the two branch stores, and the use in the
	// return resolves to the phi.
	for _, op := range phi.Ops {
		if op.Kind != Assign {
			t.Errorf("phi operand kind = %v, want assign", op.Kind)
		}
	}
	if len(phi.Uses) != 1 {
		t.Errorf("phi uses = %d, want 1 (the return)", len(phi.Uses))
	}
}

// TestPhiOneBranch: a variable written in only one branch joins the
// original definition with the branch store.
func TestPhiOneBranch(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`, "f")
	phis := phisOf(f, "x")
	if len(phis) != 1 {
		t.Fatalf("phis for x = %d, want 1", len(phis))
	}
	phi := phis[0]
	if len(phi.Ops) != 2 || phi.Incomplete {
		t.Fatalf("phi ops = %d (incomplete=%v), want 2 complete", len(phi.Ops), phi.Incomplete)
	}
	kinds := map[DefKind]int{}
	for _, op := range phi.Ops {
		kinds[op.Kind]++
	}
	if kinds[Assign] != 2 {
		t.Errorf("operand kinds = %v, want the := def and the branch store", kinds)
	}
	// One operand is the initial x := 1, the other the x = 2 store; they
	// must be distinct defs of the same variable.
	if phi.Ops[0] == phi.Ops[1] {
		t.Error("phi operands must be distinct definitions")
	}
	if phi.Ops[0].Var != phi.Ops[1].Var {
		t.Error("phi operands must bind the same variable")
	}
}

// TestPhiDeclaredInBranch: a variable declared inside one branch and used
// only there needs no phi anywhere (its scope ends with the branch).
func TestPhiDeclaredInBranch(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(c bool) int {
	if c {
		y := 2
		return y
	}
	return 0
}`, "f")
	if phis := phisOf(f, "y"); len(phis) != 0 {
		t.Errorf("phis for y = %d, want 0", len(phis))
	}
	defs := defsOf(f, "y")
	if len(defs) != 1 || len(defs[0].Uses) != 1 {
		t.Errorf("y defs/uses = %d/%d, want 1/1", len(defs), len(defs[0].Uses))
	}
}

// TestLoopPhi: a loop-carried variable gets a phi at the loop head joining
// the initial value with the back-edge value.
func TestLoopPhi(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	for _, v := range []string{"s", "i"} {
		phis := phisOf(f, v)
		if len(phis) == 0 {
			t.Fatalf("no phi for loop variable %s", v)
		}
		head := phis[0]
		if head.Block.Label != "for.head" {
			t.Errorf("%s phi block = %s, want for.head", v, head.Block.Label)
		}
		if len(head.Ops) != 2 || head.Incomplete {
			t.Errorf("%s phi ops = %d (incomplete=%v), want 2 complete", v, len(head.Ops), head.Incomplete)
		}
	}
}

// TestLabeledBreakContinue: labeled break/continue across nested loops
// still produce a well-formed SSA — the outer loop head phi sees the
// continue edge, and the post-loop use resolves to a phi fed by the break.
func TestLabeledBreakContinue(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(m, n int) int {
	total := 0
outer:
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				continue outer
			}
			if i*j > 10 {
				total = -1
				break outer
			}
			total += j
		}
	}
	return total
}`, "f")
	phis := phisOf(f, "total")
	if len(phis) == 0 {
		t.Fatal("total needs phis at the loop joins")
	}
	for _, phi := range phis {
		if phi.Incomplete {
			t.Errorf("phi at %s incomplete", phi.Block.Label)
		}
		if len(phi.Ops) < 2 {
			t.Errorf("phi at %s has %d ops, want >= 2", phi.Block.Label, len(phi.Ops))
		}
	}
	// Every use of total resolves to some def.
	uses := 0
	for _, d := range f.Defs {
		if d.Var.Name() == "total" {
			uses += len(d.Uses)
		}
	}
	if uses == 0 {
		t.Error("no resolved uses of total")
	}
}

// TestGotoLoop: a backward goto forms a loop with the label block as its
// head (Go forbids jumping *into* a block, so this is the legal shape of
// an unstructured loop); the head phi must account for both the entry path
// and the goto back edge.
func TestGotoLoop(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(c bool) int {
	x := 0
loop:
	x++
	if x < 10 {
		goto loop
	}
	return x
}`, "f")
	// x has the := def, the ++ def, and at least one phi; all uses resolve.
	if len(defsOf(f, "x")) != 2 {
		t.Fatalf("x defs = %d, want 2 (:= and ++)", len(defsOf(f, "x")))
	}
	if len(phisOf(f, "x")) == 0 {
		t.Fatal("the goto back edge must yield a phi for x at the label block")
	}
	for _, phi := range phisOf(f, "x") {
		if phi.Incomplete {
			t.Errorf("phi at %s must be complete: x is defined on every path", phi.Block.Label)
		}
		if len(phi.Ops) != 2 {
			t.Errorf("phi at %s has %d ops, want 2 (entry path + goto back edge)", phi.Block.Label, len(phi.Ops))
		}
	}
	ret := defUseCount(f, "x")
	if ret == 0 {
		t.Error("uses of x must resolve")
	}
}

// TestGotoOutOfLoop: a goto escaping a loop adds an edge to a label block
// outside it; the definition reaching the label joins the in-loop and
// pre-loop values.
func TestGotoOutOfLoop(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		if i == 7 {
			x = i
			goto done
		}
		x++
	}
	x = -1
done:
	return x
}`, "f")
	for _, phi := range phisOf(f, "x") {
		if phi.Incomplete {
			t.Errorf("phi at %s incomplete", phi.Block.Label)
		}
	}
	if len(phisOf(f, "x")) == 0 {
		t.Fatal("x needs a phi where the goto edge meets the fallthrough path")
	}
	if defUseCount(f, "x") == 0 {
		t.Error("uses of x must resolve")
	}
}

// TestGenericBody: SSA over a generic function body, including a phi for a
// type-parameterized variable.
func TestGenericBody(t *testing.T) {
	f, _ := buildFunc(t, `package p
func max[T int | float64](a, b T) T {
	m := a
	if b > m {
		m = b
	}
	return m
}`, "max")
	phis := phisOf(f, "m")
	if len(phis) != 1 {
		t.Fatalf("phis for m = %d, want 1", len(phis))
	}
	if len(phis[0].Ops) != 2 || phis[0].Incomplete {
		t.Errorf("m phi ops = %d (incomplete=%v), want 2 complete", len(phis[0].Ops), phis[0].Incomplete)
	}
	// Params are entry defs.
	for _, v := range []string{"a", "b"} {
		defs := defsOf(f, v)
		if len(defs) != 1 || defs[0].Kind != Param {
			t.Errorf("%s defs = %+v, want one param def", v, defs)
		}
		if defs[0].Block != f.Graph.Entry {
			t.Errorf("%s param def not in entry block", v)
		}
	}
}

// TestRangeDefs: range key/value variables are per-iteration defs on the
// head block and join with outer defs via head phis.
func TestRangeDefs(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(xs []int) int {
	i, v := -1, -1
	for i, v = range xs {
		_ = v
	}
	return i + v
}`, "f")
	for _, name := range []string{"i", "v"} {
		var rangeDefs int
		for _, d := range defsOf(f, name) {
			if d.Kind == Range {
				rangeDefs++
			}
		}
		if rangeDefs != 1 {
			t.Errorf("%s range defs = %d, want 1", name, rangeDefs)
		}
		if len(phisOf(f, name)) == 0 {
			t.Errorf("%s needs a phi joining the pre-loop and per-iteration defs", name)
		}
	}
}

// TestSkippedVars: address-taken and closure-captured variables are
// excluded from tracking.
func TestSkippedVars(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f() int {
	a := 1
	p := &a
	b := 2
	g := func() int { return b }
	c := 3
	return *p + g() + c
}`, "f")
	skippedNames := map[string]bool{}
	for v := range f.Skipped {
		skippedNames[v.Name()] = true
	}
	if !skippedNames["a"] {
		t.Error("address-taken a must be skipped")
	}
	if !skippedNames["b"] {
		t.Error("captured b must be skipped")
	}
	if skippedNames["c"] {
		t.Error("plain local c must stay tracked")
	}
	if len(defsOf(f, "a")) != 0 || len(defsOf(f, "b")) != 0 {
		t.Error("skipped variables must have no defs")
	}
	if len(defsOf(f, "c")) != 1 {
		t.Error("tracked c must have its def")
	}
}

// TestLiveDeadStore: Live marks the overwritten store dead and the final
// one live, through phis.
func TestLiveDeadStore(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(c bool) int {
	x := 1
	x = 2
	if c {
		x = 3
	}
	return x
}`, "f")
	live := f.Live()
	defs := defsOf(f, "x")
	if len(defs) != 3 {
		t.Fatalf("x defs = %d, want 3", len(defs))
	}
	// defs in program order: x := 1 (dead), x = 2 (live via phi), x = 3.
	if live[defs[0]] {
		t.Error("x := 1 is overwritten before any read: must be dead")
	}
	if !live[defs[1]] || !live[defs[2]] {
		t.Error("x = 2 and x = 3 both reach the return: must be live")
	}
}

// TestLiveDeadLoopCycle: a self-feeding counter never read outside its own
// updates is dead through the phi cycle.
func TestLiveDeadLoopCycle(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(n int) int {
	x := 0
	y := 0
	for i := 0; i < n; i++ {
		x = x + 1
		y = y + 1
	}
	return y
}`, "f")
	live := f.Live()
	for _, d := range defsOf(f, "x") {
		if live[d] {
			t.Errorf("def of x (%v) is never read outside its own update cycle: must be dead", d.Kind)
		}
	}
	liveY := 0
	for _, d := range defsOf(f, "y") {
		if live[d] {
			liveY++
		}
	}
	if liveY != len(defsOf(f, "y")) {
		t.Errorf("y reaches the return: all %d defs must be live, got %d", len(defsOf(f, "y")), liveY)
	}
}

// TestUseDefResolution: every use of a tracked variable resolves to the
// definition on its path.
func TestUseDefResolution(t *testing.T) {
	f, info := buildFunc(t, `package p
func f(c bool) string {
	s := "a"
	if c {
		s = "b"
		return s
	}
	return s
}`, "f")
	defs := defsOf(f, "s")
	if len(defs) != 2 {
		t.Fatalf("s defs = %d, want 2", len(defs))
	}
	// The return inside the branch uses the branch store; the outer return
	// uses the initial def (no phi needed: the then-branch returns).
	for id, d := range f.UseDef {
		if obj := info.Uses[id]; obj == nil || obj.Name() != "s" {
			continue
		}
		if d.Kind != Assign {
			t.Errorf("use at %v resolved to a %v def, want a store", id.Pos(), d.Kind)
		}
	}
	if got := len(phisOf(f, "s")); got != 0 {
		// A phi may legitimately be placed at the join even though the
		// then-branch returns (minimal SSA over the reachable graph); it
		// must then be unused.
		for _, phi := range phisOf(f, "s") {
			if len(phi.Uses) != 0 {
				t.Errorf("join phi for s must be unused, has %d uses", len(phi.Uses))
			}
		}
		_ = got
	}
}

// TestDominatesSanity walks the idom chain over a loop nest: every loop
// head's chain must end at the entry, whose own idom is nil.
func TestDominatesSanity(t *testing.T) {
	f, _ := buildFunc(t, `package p
func f(n int) int {
	t := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t += i * j
		}
	}
	return t
}`, "f")
	g := f.Graph
	heads := 0
	for _, b := range g.Blocks {
		if b.Label == "for.head" {
			heads++
			top := b
			for steps := 0; f.Dom.Idom(top) != nil && steps < len(g.Blocks); steps++ {
				top = f.Dom.Idom(top)
			}
			if top != g.Entry {
				t.Errorf("idom chain of %d:%s ends at %d:%s, want the entry", b.Index, b.Label, top.Index, top.Label)
			}
		}
	}
	if heads != 2 {
		t.Fatalf("for.head blocks = %d, want 2", heads)
	}
}

func defUseCount(f *Func, v string) int {
	n := 0
	for _, d := range f.Defs {
		if d.Var.Name() == v {
			n += len(d.Uses)
		}
	}
	return n
}

// TestDefString covers the DefKind debug names.
func TestDefString(t *testing.T) {
	want := map[DefKind]string{Param: "param", Zero: "zero", Assign: "assign", Range: "range", PhiDef: "phi"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("DefKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if DefKind(99).String() != "?" {
		t.Errorf("unknown kind must render as ?")
	}
}

var _ = fmt.Sprintf // keep fmt imported for debugging edits
