package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop returns the errdrop analyzer: it flags expression statements
// whose call silently discards an error result. An explicit `_ = f()`
// stays visible in review and is not flagged; a bare `f()` statement hides
// the drop.
//
// Exemptions, to keep the signal high:
//   - fmt.Print/Printf/Println, and fmt.Fprint* aimed statically at
//     os.Stdout or os.Stderr: best-effort process diagnostics.
//   - fmt.Fprint* into a *strings.Builder, *bytes.Buffer, or hash.Hash,
//     and write methods on those types: their writes are documented to
//     never fail.
func ErrDrop() *Analyzer {
	a := &Analyzer{Name: "errdrop"}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		errType := types.Universe.Lookup("error").Type()
		returnsError := func(t types.Type) bool {
			if t == nil {
				return false
			}
			if types.Identical(t, errType) {
				return true
			}
			tup, ok := t.(*types.Tuple)
			if !ok {
				return false
			}
			for i := 0; i < tup.Len(); i++ {
				if types.Identical(tup.At(i).Type(), errType) {
					return true
				}
			}
			return false
		}
		pass.inspect(func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(info.Types[call].Type) {
				return true
			}
			if infallibleWrite(info, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"error result of %s is silently discarded: handle it, assign it to _, or annotate //janus:allow(errdrop): <reason>",
				types.ExprString(call.Fun))
			return true
		})
	}
	return a
}

// infallibleWrite reports calls whose error result is documented to always
// be nil (or that are best-effort by convention): fmt printing to stdout
// and writes into in-memory buffers.
func infallibleWrite(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		// Interface methods reached through embedding resolve to the
		// embedded declaration (hash.Hash's Write is io.Writer's), so
		// check the receiver expression's static type as well.
		if isInfallibleWriter(recv.Type()) {
			return true
		}
		tv, ok := info.Types[sel.X]
		return ok && isInfallibleWriter(tv.Type)
	}
	if fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		return isInfallibleWriter(info.Types[call.Args[0]].Type) || isStdStream(info, call.Args[0])
	}
	return false
}

// isStdStream matches the identifiers os.Stdout and os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// isInfallibleWriter matches types whose Write is documented to never
// return an error: in-memory buffers and hash.Hash digests.
func isInfallibleWriter(t types.Type) bool {
	s := t.String()
	return strings.HasSuffix(s, "strings.Builder") || strings.HasSuffix(s, "bytes.Buffer") ||
		strings.HasSuffix(s, "hash.Hash")
}
