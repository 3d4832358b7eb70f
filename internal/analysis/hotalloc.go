package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"janus/internal/analysis/callgraph"
)

const hotpathPrefix = "//janus:hotpath"

// HotAlloc returns the hotalloc analyzer: it flags every
// statically-detectable heap allocation reachable from a function
// annotated with a //janus:hotpath doc comment, following the whole call
// graph — static calls, interface dispatch (CHA), closures, function
// values, go and defer.
//
// Detected allocation shapes: make and new, append (the backing array may
// grow), function literals that capture variables (closure allocation),
// conversions of concrete non-pointer-shaped values to interfaces
// (boxing), variadic calls (the argument slice), non-constant string
// concatenation, conversions between string and []byte/[]rune, slice and
// map composite literals, &composite literals (which may escape), and go
// statements (a new goroutine). Constants boxed into interfaces compile to
// static data and are not flagged; neither are pointer-shaped values
// (pointers, channels, maps, funcs), which fit an interface word without
// allocating.
//
// The check is deliberately an over-approximation — escape analysis may
// keep any of these on the stack — so a finding means "justify or
// restructure", not "this is a heap allocation": suppress intended sites
// with //janus:allow(hotalloc): <reason>. Soundness limits mirror the call
// graph's: standard-library bodies are opaque, so allocations inside them
// (fmt's formatting machinery, say) are attributed only to the visible
// call site; and boxing through composite-literal elements is not modeled.
//
// Each finding names the alphabetically first hotpath root that reaches
// it, plus how many other roots do.
func HotAlloc() *Analyzer { return hotAllocWith(&interp{}) }

func hotAllocWith(ip *interp) *Analyzer {
	a := &Analyzer{Name: "hotalloc"}
	a.Prepare = ip.prepare
	a.Run = bucketed(ip, computeHotAlloc)
	return a
}

func computeHotAlloc(g *callgraph.Graph, pkgs []*Package) map[*types.Package][]finding {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	roots := hotpathRoots(g, pkgs)
	if len(roots) == 0 {
		return nil
	}
	sort.Slice(roots, func(i, j int) bool {
		return friendlyName(fset, roots[i]) < friendlyName(fset, roots[j])
	})

	// rootsFor[n] lists (in root-name order) the roots whose closure
	// includes n.
	rootsFor := map[*callgraph.Node][]string{}
	for _, r := range roots {
		name := friendlyName(fset, r)
		for n := range g.Reachable([]*callgraph.Node{r}, nil) {
			rootsFor[n] = append(rootsFor[n], name)
		}
	}

	byPkg := map[*types.Package][]finding{}
	for _, n := range g.Nodes {
		body := n.Body()
		names := rootsFor[n]
		if body == nil || n.Unit == nil || len(names) == 0 {
			continue
		}
		suffix := fmt.Sprintf(" (hot path root %s)", names[0])
		if len(names) > 1 {
			suffix = fmt.Sprintf(" (hot path root %s +%d)", names[0], len(names)-1)
		}
		pkg := n.Unit.Pkg
		scanAllocs(n, func(pos token.Pos, desc string) {
			byPkg[pkg] = append(byPkg[pkg], finding{pos: pos, msg: desc + suffix})
		})
	}
	for _, fs := range byPkg {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].pos != fs[j].pos {
				return fs[i].pos < fs[j].pos
			}
			return fs[i].msg < fs[j].msg
		})
	}
	return byPkg
}

// hotpathRoots collects every declared function whose doc comment carries
// a //janus:hotpath directive (the line must sit directly above the
// declaration so the parser attaches it as doc).
func hotpathRoots(g *callgraph.Graph, pkgs []*Package) []*callgraph.Node {
	var roots []*callgraph.Node
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				marked := false
				for _, c := range fd.Doc.List {
					if rest, ok := strings.CutPrefix(c.Text, hotpathPrefix); ok &&
						(rest == "" || strings.HasPrefix(rest, " ")) {
						marked = true
					}
				}
				if !marked {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					if n := g.NodeOf(fn); n != nil {
						roots = append(roots, n)
					}
				}
			}
		}
	}
	return roots
}

// scanAllocs walks one function body (literals excluded — they are their
// own nodes) and reports each statically-visible allocation site.
func scanAllocs(n *callgraph.Node, report func(pos token.Pos, desc string)) {
	info := n.Unit.Info
	sig := nodeSig(n)
	handledLit := map[ast.Expr]bool{}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if capt := capturedLocal(info, x); capt != "" {
				report(x.Pos(), fmt.Sprintf("function literal captures %s and allocates a closure", capt))
			}
			return false
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine")
		case *ast.CallExpr:
			scanCallAlloc(info, x, report)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := unparenExpr(x.X).(*ast.CompositeLit); ok {
					handledLit[lit] = true
					report(x.Pos(), "&composite literal may escape to the heap")
				}
			}
		case *ast.CompositeLit:
			if handledLit[x] {
				return true
			}
			if t := exprType(info, x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(x.Pos(), "composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(x.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					var dst types.Type
					if x.Tok == token.DEFINE {
						if id, ok := x.Lhs[i].(*ast.Ident); ok {
							if obj := info.Defs[id]; obj != nil {
								dst = obj.Type()
							}
						}
					} else {
						dst = exprType(info, x.Lhs[i])
					}
					if boxes(info, dst, x.Rhs[i]) {
						report(x.Rhs[i].Pos(), "assignment boxes a concrete value into an interface")
					}
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && len(x.Results) == sig.Results().Len() {
				for i, r := range x.Results {
					if boxes(info, sig.Results().At(i).Type(), r) {
						report(r.Pos(), "return boxes a concrete value into an interface")
					}
				}
			}
		case *ast.SendStmt:
			if t := exprType(info, x.Chan); t != nil {
				if ch, ok := t.Underlying().(*types.Chan); ok && boxes(info, ch.Elem(), x.Value) {
					report(x.Value.Pos(), "channel send boxes a concrete value into an interface")
				}
			}
		}
		return true
	})
}

// scanCallAlloc classifies one call expression: allocating builtins,
// allocating conversions, variadic argument slices, and interface boxing
// at fixed parameters.
func scanCallAlloc(info *types.Info, call *ast.CallExpr, report func(pos token.Pos, desc string)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		scanConversion(info, tv.Type, call, report)
		return
	}
	if id, ok := unparenExpr(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow and reallocate its backing array")
			}
			return
		}
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
		if !call.Ellipsis.IsValid() && len(call.Args) > fixed {
			report(call.Pos(), "variadic call allocates its argument slice")
		}
	}
	for i, arg := range call.Args {
		if i >= fixed {
			break
		}
		if boxes(info, sig.Params().At(i).Type(), arg) {
			report(arg.Pos(), "argument boxes a concrete value into an interface parameter")
		}
	}
}

func scanConversion(info *types.Info, dst types.Type, call *ast.CallExpr, report func(pos token.Pos, desc string)) {
	if len(call.Args) != 1 {
		return
	}
	src := call.Args[0]
	if boxes(info, dst, src) {
		report(call.Pos(), "conversion boxes a concrete value into an interface")
		return
	}
	st := exprType(info, src)
	if st == nil {
		return
	}
	if isStringType(dst) != isStringType(st) && (isByteOrRuneSlice(dst) || isByteOrRuneSlice(st)) {
		// Constant-folded conversions of literals still allocate the
		// backing array at runtime unless the compiler proves otherwise.
		report(call.Pos(), "conversion between string and byte/rune slice copies and allocates")
	}
}

// boxes reports whether assigning src to dst performs an allocating
// interface conversion: dst is an interface, src is concrete, not
// pointer-shaped, and not a compile-time constant (constants box to
// static data).
func boxes(info *types.Info, dst types.Type, src ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[src]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	st := tv.Type
	if types.IsInterface(st) {
		return false
	}
	switch u := st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UnsafePointer:
			return false
		}
	}
	return true
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// capturedLocal returns the name of one variable the literal captures from
// an enclosing function, or "" if it captures nothing (a capture-free
// literal compiles to a static closure and does not allocate).
func capturedLocal(info *types.Info, lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level variable, not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
		}
		return true
	})
	return name
}

func nodeSig(n *callgraph.Node) *types.Signature {
	if n.Func != nil {
		sig, _ := n.Func.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil && n.Unit != nil {
		if tv, ok := n.Unit.Info.Types[n.Lit]; ok {
			sig, _ := tv.Type.Underlying().(*types.Signature)
			return sig
		}
	}
	return nil
}

func unparenExpr(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
