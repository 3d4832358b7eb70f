// Package analysis is januslint's static-analysis framework: a small,
// stdlib-only harness that loads packages with go/parser + go/types (via
// the source importer), walks their ASTs with project-specific analyzers,
// and emits file:line:col diagnostics.
//
// Janus's correctness hinges on numerically delicate solver code and on
// reproducible seeded randomness, which generic linters do not understand;
// the analyzers here encode those project rules (see floatcmp.go,
// detrand.go, lockorder.go, errdrop.go).
//
// A finding is suppressed by a comment of the form
//
//	//janus:allow(check[,check...]): reason
//
// placed on the offending line or on the line immediately above it. The
// reason is mandatory: an allow comment without one is itself reported
// (check name "allow"), so every suppression documents why the exact
// behavior is intended. The staleallow analyzer audits the suppressions
// themselves: a directive that no longer silences any finding is a
// finding (see staleallow.go).
//
// RunAll analyzes packages concurrently (one worker per GOMAXPROCS) and
// returns diagnostics in a fully deterministic order regardless of
// scheduling.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check run over a package.
type Analyzer struct {
	Name string
	// Paths, when non-empty, restricts the analyzer to packages whose
	// import path contains one of these substrings.
	Paths []string
	// Prepare, when set, is called once with the full package set before
	// any Run. Interprocedural analyzers use it to see the whole program
	// (build the call graph, compute global summaries) while Run stays
	// per-package: it emits only the findings anchored in that package.
	// Prepare always receives every loaded package, ignoring Paths — a
	// scoped analyzer may still need edges through unscoped packages.
	Prepare func([]*Package)
	Run     func(*Pass)
}

func (a *Analyzer) applies(pkgPath string) bool {
	if len(a.Paths) == 0 {
		return true
	}
	for _, p := range a.Paths {
		if strings.Contains(pkgPath, p) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Default returns the standard januslint analyzer suite with its
// production scoping: floatcmp guards the numerically delicate solver
// packages, detrand guards all non-test internal code, ctxleak guards the
// long-lived server/runtime/dataplane layers where a leaked goroutine
// survives for the life of the controller, and the rest — errdrop,
// layercheck, lockorder, hotalloc, deadstore, and staleallow — run
// everywhere (layercheck self-scopes to the packages layers.json names,
// hotalloc to the closure of //janus:hotpath roots). Copying a mutex is go
// vet's copylocks check, not one of these.
//
// The three interprocedural analyzers (lockorder, hotalloc, ctxleak)
// share one whole-program call graph, built once per RunAll.
func Default() []*Analyzer {
	fc := FloatCmp()
	fc.Paths = []string{"internal/lp", "internal/milp", "internal/core"}
	dr := DetRand()
	dr.Paths = []string{"internal/"}
	ip := &interp{}
	cl := ctxLeakWith(ip)
	cl.Paths = []string{"internal/server", "internal/runtime", "internal/dataplane"}
	return []*Analyzer{
		fc, dr, ErrDrop(), LayerCheck(),
		lockOrderWith(ip), hotAllocWith(ip), cl,
		DeadStore(), StaleAllow(),
	}
}

// Run applies the analyzers to one package; it is RunAll over a singleton
// program, so interprocedural analyzers see just that package.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll([]*Package{pkg}, analyzers)
}

// RunAll applies the analyzers to the whole program at once: each
// analyzer's Prepare sees every package (so call graphs span the full
// load), then per-package passes run concurrently for the packages the
// analyzer's Paths accept. Suppressed findings are dropped and the rest
// return in a deterministic order (file, line, col, check, message) that
// does not depend on scheduling. Malformed //janus:allow comments (missing
// reason, unknown check name, no parenthesized check list) are reported
// under the "allow" check.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{"allow": true}
	for _, a := range analyzers {
		known[a.Name] = true
		if a.Prepare != nil {
			a.Prepare(pkgs)
		}
	}
	results := make([][]Diagnostic, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = analyzePackage(pkg, analyzers, known)
		}(i, pkg)
	}
	wg.Wait()
	var out []Diagnostic
	for _, r := range results {
		out = append(out, r...)
	}
	sortDiags(out)
	return out
}

// analyzePackage runs every applicable analyzer over one package,
// filtering suppressed findings and auditing the suppressions themselves.
func analyzePackage(pkg *Package, analyzers []*Analyzer, known map[string]bool) []Diagnostic {
	allows, out := collectAllows(pkg, known)
	for _, a := range analyzers {
		if a.Run == nil || !a.applies(pkg.Path) {
			continue
		}
		pass := &Pass{Analyzer: a, Pkg: pkg}
		a.Run(pass)
		for _, d := range pass.diags {
			if !allows.suppress(d) {
				out = append(out, d)
			}
		}
	}
	return append(out, staleAllowDiags(pkg, analyzers, allows)...)
}

// sortDiags orders diagnostics deterministically: file, line, column,
// check, then message. The message tie-break matters when one analyzer
// reports twice at the same position — without it, parallel runs could
// interleave equal-position findings differently.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

const allowPrefix = "//janus:allow"

// allowEntry is one parsed check name of one //janus:allow directive.
type allowEntry struct {
	file  string
	line  int // line the directive sits on
	col   int
	check string
	used  bool // suppressed at least one finding this run
}

// allowIndex holds a package's suppression directives: a lookup by
// file/line plus the entry list in source order for the staleness audit.
// An allow comment covers its own line (trailing comment) and the line
// below it (comment on its own line above the code).
type allowIndex struct {
	byLine  map[string]map[int]map[string]*allowEntry
	entries []*allowEntry
}

// suppress reports whether d is covered by a directive, marking the
// covering entry used.
func (ai *allowIndex) suppress(d Diagnostic) bool {
	lines := ai.byLine[d.File]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{d.Line, d.Line - 1} {
		if e := lines[line][d.Check]; e != nil {
			e.used = true
			return true
		}
	}
	return false
}

func (ai *allowIndex) add(e *allowEntry) {
	if ai.byLine == nil {
		ai.byLine = map[string]map[int]map[string]*allowEntry{}
	}
	if ai.byLine[e.file] == nil {
		ai.byLine[e.file] = map[int]map[string]*allowEntry{}
	}
	if ai.byLine[e.file][e.line] == nil {
		ai.byLine[e.file][e.line] = map[string]*allowEntry{}
	}
	ai.byLine[e.file][e.line][e.check] = e
	ai.entries = append(ai.entries, e)
}

// collectAllows scans every comment of the package for //janus:allow
// directives, returning the suppression index plus diagnostics for
// malformed directives.
//
// The one form is //janus:allow(check[,check...]): reason. Anything else
// after the //janus:allow prefix — including the retired space-separated
// "//janus:allow check reason" — is malformed and suppresses nothing.
func collectAllows(pkg *Package, known map[string]bool) (*allowIndex, []Diagnostic) {
	ai := &allowIndex{}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		position := pkg.Fset.Position(pos)
		diags = append(diags, Diagnostic{
			File:    position.Filename,
			Line:    position.Line,
			Col:     position.Column,
			Check:   "allow",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				inner, ok := strings.CutPrefix(rest, "(")
				if !ok {
					report(c.Pos(), "janus:allow directive must list its checks in parentheses: write //janus:allow(check): reason")
					continue
				}
				close := strings.Index(inner, ")")
				if close < 0 {
					report(c.Pos(), "janus:allow directive is missing the closing parenthesis: write //janus:allow(check): reason")
					continue
				}
				checks := strings.TrimSpace(inner[:close])
				tail, ok := strings.CutPrefix(inner[close+1:], ":")
				if !ok {
					report(c.Pos(), "janus:allow(%s) needs a colon before the reason: write //janus:allow(%s): reason", checks, checks)
					continue
				}
				reason := strings.TrimSpace(tail)
				if checks == "" {
					report(c.Pos(), "janus:allow needs a check name and a reason")
					continue
				}
				if reason == "" {
					report(c.Pos(), "janus:allow %s needs a one-line reason explaining why the finding is intended", checks)
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, check := range strings.Split(checks, ",") {
					check = strings.TrimSpace(check)
					if !known[check] {
						report(c.Pos(), "janus:allow references unknown check %q", check)
						continue
					}
					ai.add(&allowEntry{file: pos.Filename, line: pos.Line, col: pos.Column, check: check})
				}
			}
		}
	}
	return ai, diags
}

// inspect walks every file of the pass's package.
func (p *Pass) inspect(f func(ast.Node) bool) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, f)
	}
}

// inspectSkipFuncLit walks n in preorder, skipping nested function
// literals: their bodies belong to a different control-flow graph.
func inspectSkipFuncLit(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// exprType resolves an expression's type, falling back to the defining
// object for identifiers introduced by the expression itself (a range
// value variable is a definition, not a use, so info.Types misses it).
func exprType(info *types.Info, e ast.Expr) types.Type {
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// rootVar resolves the variable at the root of a path expression
// (a in a.b[i].mu), looking through pointers, fields, and indexing.
func rootVar(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if v, ok := obj.(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil // a call result or literal is a fresh value, not a storage path
		}
	}
}
