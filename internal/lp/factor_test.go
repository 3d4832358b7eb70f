package lp

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// gaussJordanInverse is the factorization refactorize used before it became
// structure-aware, kept as the oracle the new one is held to: it writes the
// whole m×m basis B (B[row][position], row-major) out densely and inverts it
// by Gauss-Jordan elimination with partial pivoting, knowing nothing of
// slack columns or singletons. It returns errSingular when a column has no
// pivot above pivotTol.
func gaussJordanInverse(B []float64, m int) ([]float64, error) {
	B = append([]float64(nil), B...)
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		piv, best := -1, pivotTol
		for i := col; i < m; i++ {
			if a := math.Abs(B[i*m+col]); a > best {
				piv, best = i, a
			}
		}
		if piv < 0 {
			return nil, errSingular
		}
		if piv != col {
			for j := 0; j < m; j++ {
				B[col*m+j], B[piv*m+j] = B[piv*m+j], B[col*m+j]
				inv[col*m+j], inv[piv*m+j] = inv[piv*m+j], inv[col*m+j]
			}
		}
		d := B[col*m+col]
		for j := 0; j < m; j++ {
			B[col*m+j] /= d
			inv[col*m+j] /= d
		}
		for i := 0; i < m; i++ {
			f := B[i*m+col]
			if i == col || f == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				B[i*m+j] -= f * B[col*m+j]
				inv[i*m+j] -= f * inv[col*m+j]
			}
		}
	}
	return inv, nil
}

// denseBasis writes the basis of ws.basic out as B[row][position].
func denseBasis(ws *workspace) []float64 {
	m := ws.m
	B := make([]float64, m*m)
	for pos, v := range ws.basic {
		ws.colEntries(v, func(r int, a float64) { B[r*m+pos] = a })
	}
	return B
}

// facSnapshot is everything a failed refactorize must leave as it was.
type facSnapshot struct {
	binv0, etaVals, etaPivVal    []float64
	etaStart, etaRows, etaPivRow []int32
	facBasic                     []int
}

func snapshotFac(ws *workspace) facSnapshot {
	return facSnapshot{
		binv0:     append([]float64{}, ws.binv0...),
		etaVals:   append([]float64{}, ws.etaVals...),
		etaPivVal: append([]float64{}, ws.etaPivVal...),
		etaStart:  append([]int32{}, ws.etaStart...),
		etaRows:   append([]int32{}, ws.etaRows...),
		etaPivRow: append([]int32{}, ws.etaPivRow...),
		facBasic:  append([]int{}, ws.facBasic...),
	}
}

// facTol is the oracle's tolerance, scaled by the largest entry of the
// reference inverse: two correct eliminations of one matrix agree to a few
// ulps of that, not of 1.
const facTol = 1e-9

// checkRefactorize refactorizes ws's current basic set and holds the result
// to the Gauss-Jordan oracle: both call the basis singular or neither does;
// a singular basis leaves binv0, the eta file and facBasic untouched; a
// regular one gives ‖B·binv0 − I‖∞ ≤ facTol and agrees with the oracle's
// inverse entry by entry. It reports whether the basis was regular.
func checkRefactorize(t *testing.T, ws *workspace) bool {
	t.Helper()
	m := ws.m
	B := denseBasis(ws)
	want, wantErr := gaussJordanInverse(B, m)
	before := snapshotFac(ws)
	refacts := ws.refactorizations

	err := ws.refactorize()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("refactorize: %v, Gauss-Jordan oracle: %v (basis %v)", err, wantErr, ws.basic)
	}
	if err != nil {
		if err != errSingular {
			t.Fatalf("refactorize: %v, want errSingular", err)
		}
		if ws.facOK {
			t.Error("facOK still set after a singular refactorization")
		}
		if after := snapshotFac(ws); !reflect.DeepEqual(before, after) {
			t.Error("singular refactorization changed binv0, the eta file or facBasic")
		}
		return false
	}
	if !ws.facOK || ws.etaCount() != 0 || ws.etaNnz() != 0 || ws.refactorizations != refacts+1 {
		t.Errorf("after refactorize: facOK=%v etas=%d nnz=%d refactorizations=%d (was %d)",
			ws.facOK, ws.etaCount(), ws.etaNnz(), ws.refactorizations, refacts)
	}
	if !reflect.DeepEqual(ws.facBasic, ws.basic) {
		t.Error("facBasic does not equal basic after refactorize")
	}
	scale := 1.0
	for _, x := range want {
		scale = math.Max(scale, math.Abs(x))
	}
	for i, x := range ws.binv0 {
		if d := math.Abs(x - want[i]); !(d <= facTol*scale) {
			t.Fatalf("binv0[%d][%d] = %g, oracle %g (diff %g, scale %g)", i/m, i%m, x, want[i], d, scale)
		}
	}
	worst := 0.0
	for i := 0; i < m; i++ {
		sum := 0.0
		for j := 0; j < m; j++ {
			e := 0.0
			for k := 0; k < m; k++ {
				e += B[i*m+k] * ws.binv0[k*m+j]
			}
			if i == j {
				e--
			}
			sum += math.Abs(e)
		}
		worst = math.Max(worst, sum)
	}
	if !(worst <= facTol*scale) {
		t.Fatalf("‖B·binv0 − I‖∞ = %g (scale %g)", worst, scale)
	}
	return true
}

// dirtyFac gives ws a factorization that is not the identity and a
// non-empty eta file, so "left untouched" in checkRefactorize means
// something.
func dirtyFac(t *testing.T, ws *workspace, rng *rand.Rand) {
	t.Helper()
	for r := range ws.basic {
		ws.basic[r] = ws.n + r
	}
	if err := ws.refactorize(); err != nil {
		t.Fatal(err)
	}
	if ws.m == 0 {
		return
	}
	for i := range ws.binv0 {
		ws.binv0[i] += rng.Float64()
	}
	w := make([]float64, ws.m)
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	ws.appendEta(w, rng.Intn(ws.m))
}

// randomFacProblem draws n sparse structural columns over m rows, the last
// of them empty. Shapes cover the period models' (one ±1 in a "policy" row
// plus a few weighted "link" rows, which peel almost completely) and
// dense-ish columns (which leave a bump).
func randomFacProblem(rng *rand.Rand, n, m int, density float64) *Problem {
	p := NewProblem()
	for v := 0; v < n; v++ {
		p.AddVariable(0, 1, rng.Float64())
	}
	rows := make([][]Term, m)
	for v := 0; v < n-1 && m > 0; v++ {
		r := rng.Intn(m)
		rows[r] = append(rows[r], Term{Var: v, Coef: []float64{1, -1}[rng.Intn(2)]})
		for r2 := 0; r2 < m; r2++ {
			if r2 != r && rng.Float64() < density {
				rows[r2] = append(rows[r2], Term{Var: v, Coef: 0.5 + 30*rng.Float64()})
			}
		}
	}
	for _, terms := range rows {
		mustRowB(p, []Sense{LE, GE, EQ}[rng.Intn(3)], rng.Float64()*10, terms)
	}
	return p
}

// TestRefactorizeMatchesGaussJordan holds the structure-aware factorization
// to the dense Gauss-Jordan oracle over seeded random bases of every kind:
// all logical (in and out of row order), all structural, mixed, a logical
// held twice, and cores made rank-deficient by a repeated or an empty
// column.
func TestRefactorizeMatchesGaussJordan(t *testing.T) {
	regular, singular := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(40)
		n := m + 1 + rng.Intn(40)
		density := []float64{0.02, 0.08, 0.3, 0.9}[rng.Intn(4)]
		p := randomFacProblem(rng, n, m, density)
		ws := newWorkspace(p)

		perm := rng.Perm(m)
		structs := rng.Perm(n)
		logical, permuted, structural, mixed := make([]int, m), make([]int, m), make([]int, m), make([]int, m)
		frac := rng.Float64()
		for r := 0; r < m; r++ {
			logical[r] = n + r
			permuted[r] = n + perm[r]
			structural[r] = structs[r]
			mixed[r] = n + perm[r]
			if rng.Float64() < frac {
				mixed[r] = structs[r]
			}
		}
		type namedBasis struct {
			name  string
			basic []int
		}
		bases := []namedBasis{
			{"all-logical", logical}, {"all-logical-permuted", permuted},
			{"all-structural", structural}, {"mixed", mixed},
		}
		if m >= 2 {
			twice := func(v int) []int {
				b := append([]int(nil), mixed...)
				b[perm[0]], b[perm[1]] = v, v
				return b
			}
			bases = append(bases,
				namedBasis{"logical-twice", twice(n + perm[0])},
				namedBasis{"structural-twice", twice(structs[0])})
		}
		for _, b := range bases {
			dirtyFac(t, ws, rng)
			copy(ws.basic, b.basic)
			if checkRefactorize(t, ws) {
				regular++
			} else {
				singular++
				if strings.HasPrefix(b.name, "all-logical") {
					t.Errorf("%s basis reported singular", b.name)
				}
			}
			if t.Failed() {
				t.Fatalf("seed %d, %s basis (m=%d n=%d density %g)", seed, b.name, m, n, density)
			}
		}
	}
	t.Logf("%d regular and %d singular bases", regular, singular)
	if regular < 400 || singular < 400 {
		t.Errorf("%d regular and %d singular bases: the generator no longer covers both", regular, singular)
	}
}

// TestRefactorizeRankDeficientBump makes the dependency numeric instead of
// structural: a structural column that is a combination of two others has
// no singleton to give it away, so only the bump's partial pivoting can
// find it.
func TestRefactorizeRankDeficientBump(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(12)
		cols := make([][]float64, m)
		for v := range cols {
			cols[v] = make([]float64, m)
			for r := range cols[v] {
				cols[v][r] = 1 + rng.Float64()
			}
		}
		a, b, c := rng.Intn(m), rng.Intn(m), rng.Intn(m)
		dependent := a != b && b != c && a != c
		if dependent {
			for r := 0; r < m; r++ {
				cols[c][r] = 2*cols[a][r] - 3*cols[b][r]
			}
		}
		p := NewProblem()
		for range cols {
			p.AddVariable(0, 1, 0)
		}
		for r := 0; r < m; r++ {
			terms := make([]Term, m)
			for v := range cols {
				terms[v] = Term{Var: v, Coef: cols[v][r]}
			}
			mustRowB(p, LE, 1, terms)
		}
		ws := newWorkspace(p)
		dirtyFac(t, ws, rng)
		for r := range ws.basic {
			ws.basic[r] = r
		}
		if regular := checkRefactorize(t, ws); regular == dependent {
			t.Errorf("seed %d: dependent=%v but regular=%v", seed, dependent, regular)
		}
	}
}

// readProblem parses the line format core's TestPeriodModelFixtures writes:
// "v lo up obj" per variable, then "r sense rhs var:coef ..." per row.
func readProblem(tb testing.TB, name string) *Problem {
	tb.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	num := func(s string) float64 {
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		return x
	}
	p := NewProblem()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 4 && fields[0] == "v":
			p.AddVariable(num(fields[1]), num(fields[2]), num(fields[3]))
		case len(fields) >= 3 && fields[0] == "r":
			terms := make([]Term, 0, len(fields)-3)
			for _, tm := range fields[3:] {
				v, c, ok := strings.Cut(tm, ":")
				if !ok {
					tb.Fatalf("%s: bad term %q", name, tm)
				}
				terms = append(terms, Term{Var: int(num(v)), Coef: num(c)})
			}
			if _, err := p.AddConstraint(Sense(num(fields[1])), num(fields[2]), terms); err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
		default:
			tb.Fatalf("%s: bad line %q", name, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// periodModels are the real period models under testdata (kept current by
// core's TestPeriodModelFixtures).
var periodModels = []string{"period-ans.lp", "period-cwix.lp"}

// TestRefactorizePeriodModels runs the oracle on bases the simplex really
// visits on the Ans and Cwix period models: the one after the first pivot,
// after every 150 more, and the optimal one.
func TestRefactorizePeriodModels(t *testing.T) {
	for _, name := range periodModels {
		t.Run(name, func(t *testing.T) {
			p := readProblem(t, name)
			for iters := 0; ; iters += 150 {
				sol, err := p.Solve(Options{MaxIters: iters + 1})
				if err != nil {
					t.Fatal(err)
				}
				k := 0
				for _, v := range p.ws.basic {
					if v < p.ws.n {
						k++
					}
				}
				if !checkRefactorize(t, p.ws) {
					t.Fatalf("basis after %d pivots is singular", sol.Iterations)
				}
				if sol.Status != IterLimit {
					if sol.Status != Optimal {
						t.Fatalf("status %v", sol.Status)
					}
					t.Logf("m=%d n=%d: optimal after %d pivots with %d structural basics, bump %d",
						p.ws.m, p.ws.n, sol.Iterations, k, len(p.ws.fac.bumpRow))
					if b := len(p.ws.fac.bumpRow); 2*b > k {
						t.Errorf("bump %d of %d structural basics: the peel no longer takes most of the core", b, k)
					}
					break
				}
			}
		})
	}
}

// TestWorkspaceMemoryCeiling pins what a workspace may hold: one dense m×m
// array (binv0), a second only as large as the bump the bases actually
// leave, a bit per binv0 entry, and otherwise O(m + n + nnz). The
// factorization used to keep three m×m arrays per workspace, and every
// branch-and-bound worker owns one; heap_mb in the benchmark reads them.
func TestWorkspaceMemoryCeiling(t *testing.T) {
	measure := func(p *Problem, basis func(ws *workspace)) (bytes, dense, small uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ws := newWorkspace(p)
		basis(ws)
		if err := ws.refactorize(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ws)
		nnz := 0
		for _, rows := range ws.colRows {
			nnz += len(rows)
		}
		m, n := uint64(ws.m), uint64(ws.n)
		// 8 B per dense entry and a bit for the mask; per row, variable and
		// nonzero a few dozen bytes of index, scratch and slice header, with
		// room for size classes.
		return after.TotalAlloc - before.TotalAlloc, 8 * m * m, m*m/8 + 64*(m+n) + 160*m + 24*uint64(nnz) + 4096
	}

	for _, name := range periodModels {
		p := readProblem(t, name)
		sol, err := p.Solve(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: %v %v", name, err, sol)
		}
		optimal := append([]int(nil), p.ws.basic...)
		got, dense, small := measure(p, func(ws *workspace) { copy(ws.basic, optimal) })
		t.Logf("%s: workspace + first refactorize allocate %d B; one m×m array is %d B, the O(m+n+nnz) allowance %d B", name, got, dense, small)
		if limit := dense + dense/4 + small; got > limit {
			t.Errorf("%s: %d B allocated, ceiling %d B (one m×m array, a bump of at most m/2 and O(m+n+nnz))", name, got, limit)
		}
	}

	// Worst case: a dense, all-structural basis is all bump.
	p := buildBenchLP(150, 60)
	got, dense, small := measure(p, func(ws *workspace) {
		for r := range ws.basic {
			ws.basic[r] = r
		}
	})
	t.Logf("dense 60-row basis: %d B allocated; one m×m array is %d B, the allowance %d B", got, dense, small)
	if limit := 2*dense + small; got > limit {
		t.Errorf("dense basis: %d B allocated, ceiling %d B (two m×m arrays and O(m+n+nnz))", got, limit)
	}
}
