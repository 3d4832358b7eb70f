package analysis

import (
	"go/ast"
	"go/types"
)

// detrandForbidden lists the math/rand package-level functions that draw
// from the process-global source. Constructors (New, NewSource, NewZipf)
// are fine: they are exactly how a seeded *rand.Rand is built.
var detrandForbidden = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 additions.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

// DetRand returns the detrand analyzer: it forbids the global math/rand
// (and math/rand/v2) top-level functions in non-test code. Every
// experiment in EXPERIMENTS.md must be bit-reproducible from Config.Seed,
// which requires all randomness to flow through a seeded *rand.Rand
// threaded from the configuration — the global source is shared,
// non-deterministically interleaved under concurrency, and (pre-1.20)
// seeded from wall clock.
func DetRand() *Analyzer {
	a := &Analyzer{Name: "detrand"}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		pass.inspect(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // method on *rand.Rand etc. — the seeded form
			}
			if !detrandForbidden[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"global rand.%s breaks seeded reproducibility: use a *rand.Rand derived from Config.Seed",
				fn.Name())
			return true
		})
	}
	return a
}
