package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sync"

	"janus/internal/analysis/callgraph"
)

// interp is the whole-program state shared by the interprocedural
// analyzers (lockorder, hotalloc, ctxleak). RunAll hands every analyzer
// the full package set through Prepare; the first Run that needs the call
// graph builds it once, and the others reuse it. Default() gives its three
// interprocedural analyzers one shared interp so a lint run builds a
// single graph; fixture tests construct analyzers individually, each with
// a private interp over just the fixture package.
type interp struct {
	mu    sync.Mutex
	pkgs  []*Package
	graph *callgraph.Graph
}

// prepare notes the program; a changed package set invalidates the cached
// graph (the same suite may be reused across loads).
func (ip *interp) prepare(pkgs []*Package) {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	if !samePkgs(ip.pkgs, pkgs) {
		ip.pkgs = pkgs
		ip.graph = nil
	}
}

// ensure returns the call graph over the prepared program, building it on
// first use.
func (ip *interp) ensure() (*callgraph.Graph, []*Package) {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	if ip.graph == nil {
		units := make([]*callgraph.Unit, len(ip.pkgs))
		var fset *token.FileSet
		for i, p := range ip.pkgs {
			units[i] = &callgraph.Unit{Pkg: p.Types, Info: p.Info, Files: p.Files}
			fset = p.Fset
		}
		ip.graph = callgraph.Build(fset, units)
	}
	return ip.graph, ip.pkgs
}

func samePkgs(a, b []*Package) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finding is one pre-computed interprocedural diagnostic, bucketed by the
// package whose pass emits it.
type finding struct {
	pos token.Pos
	msg string
}

// bucketed runs compute once per program and replays the findings anchored
// in each pass's package. Interprocedural analyzers compute globally —
// their evidence spans packages — but report locally, so Paths scoping and
// //janus:allow suppression keep working per package.
func bucketed(ip *interp, compute func(g *callgraph.Graph, pkgs []*Package) map[*types.Package][]finding) func(*Pass) {
	var mu sync.Mutex
	var computed []*Package
	var byPkg map[*types.Package][]finding
	return func(pass *Pass) {
		g, pkgs := ip.ensure()
		mu.Lock()
		if !samePkgs(computed, pkgs) {
			byPkg = compute(g, pkgs)
			computed = pkgs
		}
		fs := byPkg[pass.Pkg.Types]
		mu.Unlock()
		for _, f := range fs {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// friendlyName renders a node for diagnostics: short receiver-qualified
// names for declared functions, file-base positions for literals — never
// absolute paths, so fixture goldens stay machine-independent.
func friendlyName(fset *token.FileSet, n *callgraph.Node) string {
	if n.Lit != nil {
		p := fset.Position(n.Lit.Pos())
		return fmt.Sprintf("func literal at %s:%d", filepath.Base(p.Filename), p.Line)
	}
	fn := n.Func
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), "*"
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// shortPos renders a position as base-filename:line for use inside
// diagnostic messages.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
