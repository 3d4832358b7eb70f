package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp returns the floatcmp analyzer: it flags == and != between
// floating-point expressions. Exact float equality is almost always a bug
// in solver code — accumulated rounding in the simplex or branch-and-bound
// arithmetic makes "equal" values differ in the last bits — so tolerance
// comparisons must go through an epsilon helper. The rare intentional
// exact comparisons (sparsity guards that skip arithmetic on values that
// are exactly zero by construction, zero-value config sentinels) must be
// annotated //janus:allow(floatcmp): with a reason.
func FloatCmp() *Analyzer {
	a := &Analyzer{Name: "floatcmp"}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		pass.inspect(func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			x, y := info.Types[be.X], info.Types[be.Y]
			if !isFloat(x.Type) && !isFloat(y.Type) {
				return true
			}
			// Both sides constant: the comparison folds at compile time.
			if x.Value != nil && y.Value != nil {
				return true
			}
			pass.Reportf(be.OpPos,
				"floating-point %s comparison: use an epsilon helper, or annotate //janus:allow(floatcmp): <reason> if exact equality is intended",
				be.Op)
			return true
		})
	}
	return a
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
