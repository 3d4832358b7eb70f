package lp

import "math"

// workspace holds every reusable buffer of the revised simplex: the basis
// state, the CSC column index of the structural matrix, the dense basis
// inverse at the last refactorization, the eta file of product-form updates
// appended since, and all per-pivot scratch vectors. A Problem owns one
// workspace and reuses it across Solve calls, so a branch-and-bound worker
// re-solving thousands of node LPs on its private clone runs with near-zero
// steady-state allocation.
//
// Concurrency contract: the workspace makes Solve a mutating operation on
// the Problem. A Problem (and therefore its workspace) must not be solved
// from two goroutines at once — concurrent solvers each own a Problem.Clone,
// which starts with a fresh workspace.
type workspace struct {
	version uint64 // Problem.version the structural caches were built for
	n, m    int

	// Bounds and objective over structural+logical variables; the structural
	// prefix is re-copied from the Problem on every Solve (SetBounds and
	// SetObjective do not invalidate the workspace).
	lo, up, obj []float64

	// Basis state, persisted across solves so a warm re-solve that loads the
	// previous final basis can reuse the factorization below.
	basic  []int
	status []int8
	varRow []int32 // variable -> basic row, -1 when nonbasic
	xB     []float64

	// CSC column index of the structural matrix.
	colRows  [][]int32
	colCoefs [][]float64

	// binv0 is the dense inverse (row-major m×m) of the basis at the last
	// refactorization. Together with the eta file it represents the inverse
	// of the *current* basis: B = B0·E1·…·Ek, so B⁻¹ = Ek⁻¹·…·E1⁻¹·B0⁻¹.
	binv0 []float64
	// facBasic is the basic set the (binv0, etas) pair factorizes; it tracks
	// every pivot, so a later Solve whose loaded basis equals it can skip the
	// refactorization entirely — the warm-resolve fast path.
	facBasic []int
	facOK    bool
	// fac is refactorize's scratch (factor.go). binv0 is the only dense m×m
	// array a workspace owns: refactorize rules out a singular basis before
	// it writes the first entry, so it needs no second copy to fall back on.
	fac factor

	// Eta file: eta e has pivot row etaPivRow[e] with diagonal etaPivVal[e]
	// and off-pivot entries etaRows/etaVals[etaStart[e]:etaStart[e+1]].
	// Arenas keep their capacity across refactorizations and solves.
	etaStart  []int32
	etaRows   []int32
	etaVals   []float64
	etaPivRow []int32
	etaPivVal []float64

	// Per-pivot scratch.
	y, w, z, resid []float64

	// Candidate-list pricing state (candScore is only coherent during a
	// refresh scan; between scans candidates are re-priced exactly).
	cands     []int32
	candScore []float64

	mark []bool // n+m scratch for loading warm bases without maps

	// Per-solve counters surfaced on Solution.
	refactorizations int
	pricingSwitches  int
}

const (
	// etaDropTol drops negligible eta entries; anything this small cannot
	// influence a pivot above pivotTol.
	etaDropTol = 1e-12
	// etaMax bounds the eta count between refactorizations. Scaling with m
	// keeps the amortized refactorization cost at O(m²) per pivot even when
	// the basis is all bump (refactorize's O(m³) worst case), matching
	// the dense parts of FTRAN/BTRAN; the floor keeps tiny problems from
	// refactorizing every other pivot and the cap bounds chain length.
	etaMaxFloor = 8
	etaMaxCap   = 100
)

func etaLimit(m int) int {
	l := m
	if l < etaMaxFloor {
		l = etaMaxFloor
	}
	if l > etaMaxCap {
		l = etaMaxCap
	}
	return l
}

// etaFillLimit triggers refactorization on fill-in. Applying the chain
// costs O(nnz) per FTRAN/BTRAN against the unavoidable O(m²) dense binv0
// pass, so compaction only pays once the chain's nnz rivals m²; below
// that, refactorizing early costs an extra refactorization for no
// FTRAN/BTRAN savings. m²/2 (+slack for tiny m) keeps the chain cheap
// while halving refactorization count on dense-column workloads.
func etaFillLimit(m int) int { return m*m/2 + 256 }

// candListCap bounds the pricing candidate list.
func candListCap(total int) int {
	k := total / 8
	if k < 10 {
		k = 10
	}
	if k > 128 {
		k = 128
	}
	return k
}

// workspace returns the Problem's solver workspace, rebuilding the
// structural caches when variables or rows were added since the last solve
// and refreshing bounds/objective unconditionally.
func (p *Problem) workspace() *workspace {
	if p.ws == nil || p.ws.version != p.version {
		p.ws = newWorkspace(p)
	}
	p.ws.refresh(p)
	return p.ws
}

func newWorkspace(p *Problem) *workspace {
	n, m := p.nStruct, len(p.rows)
	total := n + m
	ws := &workspace{version: p.version, n: n, m: m} //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.lo = make([]float64, total)                   //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.up = make([]float64, total)                   //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.obj = make([]float64, total)                  //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.basic = make([]int, m)                        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.status = make([]int8, total)                  //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.varRow = make([]int32, total)                 //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.xB = make([]float64, m)                       //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.binv0 = make([]float64, m*m)                  //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.facBasic = make([]int, m)                     //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.y = make([]float64, m)                        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.w = make([]float64, m)                        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.z = make([]float64, m)                        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.resid = make([]float64, m)                    //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.mark = make([]bool, total)                    //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.etaStart = append(ws.etaStart, 0)             //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	ws.fac = newFactor(m)
	ws.buildCols(p)
	return ws
}

// refresh re-copies the mutable problem data (structural bounds and
// objective — the branch-and-bound layer flips these between solves) and
// resets the per-solve counters. Logical bounds depend only on row senses,
// which cannot change without a version bump, so they are set once here for
// clarity and cheapness.
func (ws *workspace) refresh(p *Problem) {
	copy(ws.lo[:ws.n], p.lo)
	copy(ws.up[:ws.n], p.up)
	copy(ws.obj[:ws.n], p.obj)
	for r := 0; r < ws.m; r++ {
		v := ws.n + r
		ws.obj[v] = 0
		switch p.sense[r] {
		case LE:
			ws.lo[v], ws.up[v] = 0, Inf
		case GE:
			ws.lo[v], ws.up[v] = math.Inf(-1), 0
		case EQ:
			ws.lo[v], ws.up[v] = 0, 0
		}
	}
	ws.refactorizations = 0
	ws.pricingSwitches = 0
}

// buildCols constructs the CSC column index of the structural matrix.
func (ws *workspace) buildCols(p *Problem) {
	ws.colRows = make([][]int32, ws.n)    //janus:allow(hotalloc): CSC column index built once per problem version
	ws.colCoefs = make([][]float64, ws.n) //janus:allow(hotalloc): CSC column index built once per problem version
	counts := make([]int, ws.n)           //janus:allow(hotalloc): CSC column index built once per problem version
	for r := range p.rows {
		for _, v := range p.rows[r].vars {
			counts[v]++
		}
	}
	for v := 0; v < ws.n; v++ {
		ws.colRows[v] = make([]int32, 0, counts[v])    //janus:allow(hotalloc): CSC column index built once per problem version
		ws.colCoefs[v] = make([]float64, 0, counts[v]) //janus:allow(hotalloc): CSC column index built once per problem version
	}
	for r := range p.rows {
		rw := &p.rows[r]
		for i, v := range rw.vars {
			ws.colRows[v] = append(ws.colRows[v], int32(r))      //janus:allow(hotalloc): CSC column index built once per problem version
			ws.colCoefs[v] = append(ws.colCoefs[v], rw.coefs[i]) //janus:allow(hotalloc): CSC column index built once per problem version
		}
	}
}

// colEntries iterates the sparse column of variable v as (row, coef);
// logical variable n+r is the unit column e_r.
func (ws *workspace) colEntries(v int, f func(r int, a float64)) {
	if v >= ws.n {
		f(v-ws.n, 1)
		return
	}
	rows, coefs := ws.colRows[v], ws.colCoefs[v]
	for i, r := range rows {
		f(int(r), coefs[i])
	}
}

func (ws *workspace) etaCount() int { return len(ws.etaPivRow) }
func (ws *workspace) etaNnz() int   { return len(ws.etaRows) }

func (ws *workspace) clearEtas() {
	ws.etaStart = ws.etaStart[:1]
	ws.etaRows = ws.etaRows[:0]
	ws.etaVals = ws.etaVals[:0]
	ws.etaPivRow = ws.etaPivRow[:0]
	ws.etaPivVal = ws.etaPivVal[:0]
}

// appendEta records a pivot on row r with FTRAN'd entering column w as a
// product-form eta and advances facBasic's row r (the caller has already
// updated ws.basic). This replaces the dense O(m²) row elimination of the
// previous engine with an O(nnz(w)) append.
func (ws *workspace) appendEta(w []float64, r int) {
	for i, wi := range w {
		if i == r || math.Abs(wi) <= etaDropTol {
			continue
		}
		ws.etaRows = append(ws.etaRows, int32(i)) //janus:allow(hotalloc): eta-file growth is amortized: the arrays keep their capacity across refactorizations
		ws.etaVals = append(ws.etaVals, wi)       //janus:allow(hotalloc): eta-file growth is amortized: the arrays keep their capacity across refactorizations
	}
	ws.etaStart = append(ws.etaStart, int32(len(ws.etaRows))) //janus:allow(hotalloc): eta-file growth is amortized: the arrays keep their capacity across refactorizations
	ws.etaPivRow = append(ws.etaPivRow, int32(r))             //janus:allow(hotalloc): eta-file growth is amortized: the arrays keep their capacity across refactorizations
	ws.etaPivVal = append(ws.etaPivVal, w[r])                 //janus:allow(hotalloc): eta-file growth is amortized: the arrays keep their capacity across refactorizations
	ws.facBasic[r] = ws.basic[r]
}

// ftranEtas applies Ek⁻¹·…·E1⁻¹ left-multiplication in file order to the
// dense column vector w (completing w = B⁻¹·a after the binv0 pass).
func (ws *workspace) ftranEtas(w []float64) {
	for e := 0; e < len(ws.etaPivRow); e++ {
		r := ws.etaPivRow[e]
		t := w[r] / ws.etaPivVal[e]
		w[r] = t
		if t == 0 { //janus:allow(floatcmp): exact-zero sparsity guard: a zero pivot component leaves the eta a no-op
			continue
		}
		for k := ws.etaStart[e]; k < ws.etaStart[e+1]; k++ {
			w[ws.etaRows[k]] -= ws.etaVals[k] * t
		}
	}
}

// btranEtas applies the eta chain to the row vector z in reverse file order
// (the first half of y = z·B⁻¹ = ((z·Ek⁻¹)·…·E1⁻¹)·B0⁻¹). Each eta touches
// only its pivot component, so the pass is O(total eta nnz).
func (ws *workspace) btranEtas(z []float64) {
	for e := len(ws.etaPivRow) - 1; e >= 0; e-- {
		r := ws.etaPivRow[e]
		acc := z[r]
		for k := ws.etaStart[e]; k < ws.etaStart[e+1]; k++ {
			acc -= ws.etaVals[k] * z[ws.etaRows[k]]
		}
		z[r] = acc / ws.etaPivVal[e]
	}
}

// ftranColumn computes w = B⁻¹·A_v into the shared scratch ws.w, exploiting
// the sparsity of column v against binv0's rows before applying the etas.
//
//janus:hotpath
func (ws *workspace) ftranColumn(v int) []float64 {
	m := ws.m
	w := ws.w
	if v >= ws.n {
		r := v - ws.n
		for i := 0; i < m; i++ {
			w[i] = ws.binv0[i*m+r]
		}
	} else {
		rows, coefs := ws.colRows[v], ws.colCoefs[v]
		for i := 0; i < m; i++ {
			row := ws.binv0[i*m : i*m+m]
			sum := 0.0
			for k, r := range rows {
				sum += row[r] * coefs[k]
			}
			w[i] = sum
		}
	}
	ws.ftranEtas(w)
	return w
}

// btran computes y = z·B⁻¹ into the shared scratch ws.y, destroying z.
// Zero z components — most of them, in phase 1 — skip their binv0 row.
//
//janus:hotpath
func (ws *workspace) btran(z []float64) []float64 {
	m := ws.m
	ws.btranEtas(z)
	y := ws.y
	for k := range y {
		y[k] = 0
	}
	for i := 0; i < m; i++ {
		zi := z[i]
		if zi == 0 { //janus:allow(floatcmp): exact-zero sparsity guard: zero components contribute nothing to y
			continue
		}
		row := ws.binv0[i*m : i*m+m]
		for k, bk := range row {
			y[k] += zi * bk
		}
	}
	return y
}

// facMatchesBasis reports whether the retained factorization already
// represents the current basic set, making refactorization unnecessary —
// the common case when branch and bound warm-starts a child node from the
// basis its parent just finished with on the same worker.
func (ws *workspace) facMatchesBasis() bool {
	if !ws.facOK {
		return false
	}
	for i, v := range ws.basic {
		if ws.facBasic[i] != v {
			return false
		}
	}
	return true
}
