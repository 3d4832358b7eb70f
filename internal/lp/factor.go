package lp

import (
	"math"
	"math/bits"
)

// factor holds the scratch of workspace.refactorize: the pivot order found
// by the singleton peel, the counts and row index that drive it, the dense
// LU of the residual bump, and a bit per binv0 entry. Everything but lu and
// mask is O(m) or O(nnz of the basis); mask is a 64th of a dense m×m array;
// lu is b×b for a bump of b rows and is sized on first need, so a workspace
// whose bases peel down to a small bump never pays for a second dense m×m
// array.
type factor struct {
	// Pivot t takes row pivRow[t] and basis position pivPos[t] with diagonal
	// pivVal[t]; rowOrd is the inverse of pivRow, −1 while a row is active.
	pivRow, pivPos []int32
	pivVal         []float64
	rowOrd         []int32
	// rowCnt/colCnt count the active entries of an active row / an active
	// structural basic column; colCnt is −1 once the position is pivoted.
	rowCnt, colCnt []int32
	// Row index of the structural basic columns over the rows no basic
	// logical covers: row r's positions are rowPos[rowStart[r]:rowStart[r+1]].
	rowStart, rowPos []int32
	// stack holds singleton candidates: r for a row, m+pos for a column.
	stack []int32

	// Bump: its rows and positions, each row's local index, and the dense
	// row-major LU (unit lower L below the diagonal, U on and above it).
	bumpRow, bumpPos, bumpIdx []int32
	lu                        []float64

	// invert's view of binv0's sparsity: row p owns words = ⌈m/64⌉ words of
	// mask, and bit c of them is set once binv0[p][c] may be nonzero; at
	// lists the columns of the row being spread.
	words int
	mask  []uint64
	at    []int32
}

func newFactor(m int) factor {
	words := (m + 63) / 64
	return factor{
		words:    words,
		pivRow:   make([]int32, m),        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		pivPos:   make([]int32, m),        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		pivVal:   make([]float64, m),      //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		rowOrd:   make([]int32, m),        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		rowCnt:   make([]int32, m),        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		colCnt:   make([]int32, m),        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		rowStart: make([]int32, m+1),      //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		bumpIdx:  make([]int32, m),        //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		mask:     make([]uint64, m*words), //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
		at:       make([]int32, 0, m),     //janus:allow(hotalloc): workspace construction runs once per problem version, not per pivot
	}
}

// refactorize rebuilds binv0 from the current basic set and clears the eta
// file. It never eliminates on the full m×m basis: it finds a pivot order
// under which most of the basis is already triangular, runs a dense LU with
// partial pivoting only on what is left, and then forms the dense inverse
// by row substitutions driven by the sparse basis columns.
//
//  1. Every basic logical is a unit column: it pivots on its own row at no
//     cost (the slack block of B = [I A_ST; 0 A_TT] after permutation).
//  2. On the core A_TT — the k structural basic columns over the k rows no
//     basic logical covers — row and column singletons are peeled until
//     none is left. A singleton pivot has either an empty row or an empty
//     column in the active submatrix, so it causes no fill: the L and U
//     entries of these pivots are the basis's own coefficients.
//  3. The residual bump (b×b, untouched by steps 1–2 for the same reason)
//     is factorized densely with partial pivoting.
//  4. With B = L·U in pivot order, binv0 = U⁻¹·L⁻¹ is built in place: start
//     from the permuted identity, apply L⁻¹ by a forward and U⁻¹ by a
//     backward pass, each nonzero of the basis and of the bump's factors
//     costing one update of a binv0 row by another, over the nonzeros of
//     the other.
//
// Cost is O(b³ + (nnz(B) + b²)·m + m²) at worst, against the O(m³) of
// eliminating on the whole basis, and far less while the inverse is sparse;
// an all-logical basis costs one m² clear.
//
// A singular basis — an empty or dependent column, a pivot at or below
// pivotTol — is detected in steps 1–3, before binv0 is written: the call
// returns errSingular and the previous factorization (binv0, eta file,
// facBasic) is left intact.
func (ws *workspace) refactorize() error {
	nSingle, err := ws.peel()
	if err == nil {
		err = ws.factorBump(nSingle)
	}
	if err != nil {
		ws.facOK = false
		return err
	}
	ws.invert(nSingle)
	ws.clearEtas()
	copy(ws.facBasic, ws.basic)
	ws.facOK = true
	ws.refactorizations++
	return nil
}

// peel fixes the pivot order of every basic logical and every row or column
// singleton of the core, returning how many pivots it placed. The rows with
// rowOrd < 0 and the positions with colCnt ≥ 0 that remain form the bump.
func (ws *workspace) peel() (int, error) {
	f := &ws.fac
	m, n := ws.m, ws.n
	for r := 0; r < m; r++ {
		f.rowOrd[r] = -1
		f.rowCnt[r] = 0
	}
	nPiv := 0
	for pos, v := range ws.basic {
		if v < n {
			continue
		}
		if f.rowOrd[v-n] >= 0 {
			return 0, errSingular // two logicals of one row
		}
		f.place(nPiv, v-n, pos, 1)
		nPiv++
	}

	// Count the core and index it by row.
	for pos, v := range ws.basic {
		if v >= n {
			continue
		}
		cnt := int32(0)
		for _, r := range ws.colRows[v] {
			if f.rowOrd[r] < 0 {
				f.rowCnt[r]++
				cnt++
			}
		}
		f.colCnt[pos] = cnt
	}
	f.rowStart[0] = 0
	for r := 0; r < m; r++ {
		f.rowStart[r+1] = f.rowStart[r] + f.rowCnt[r]
	}
	if nnz := int(f.rowStart[m]); cap(f.rowPos) < nnz {
		f.rowPos = make([]int32, nnz) //janus:allow(hotalloc): grows to the largest core seen, then is reused
	}
	f.rowPos = f.rowPos[:f.rowStart[m]]
	for pos, v := range ws.basic {
		if v >= n {
			continue
		}
		for _, r := range ws.colRows[v] {
			if f.rowOrd[r] < 0 {
				f.rowPos[f.rowStart[r]] = int32(pos)
				f.rowStart[r]++
			}
		}
	}
	for r := m; r > 0; r-- { // the fill advanced every start to its row's end
		f.rowStart[r] = f.rowStart[r-1]
	}
	f.rowStart[0] = 0

	f.stack = f.stack[:0]
	for r := 0; r < m; r++ {
		if f.rowOrd[r] < 0 && f.rowCnt[r] == 1 {
			f.stack = append(f.stack, int32(r)) //janus:allow(hotalloc): the stack keeps its capacity across refactorizations
		}
	}
	for pos := range ws.basic {
		if f.colCnt[pos] == 1 {
			f.stack = append(f.stack, int32(m+pos)) //janus:allow(hotalloc): the stack keeps its capacity across refactorizations
		}
	}
	for len(f.stack) > 0 {
		c := int(f.stack[len(f.stack)-1])
		f.stack = f.stack[:len(f.stack)-1]
		// Resolve the candidate to its one active entry (r, pos); a count
		// that moved since the push means the candidate is stale.
		r, pos := -1, -1
		if c < m {
			if f.rowOrd[c] >= 0 || f.rowCnt[c] != 1 {
				continue
			}
			r = c
			for _, p := range f.rowPos[f.rowStart[r]:f.rowStart[r+1]] {
				if f.colCnt[p] >= 0 {
					pos = int(p)
					break
				}
			}
		} else {
			pos = c - m
			if f.colCnt[pos] != 1 {
				continue
			}
			for _, cr := range ws.colRows[ws.basic[pos]] {
				if f.rowOrd[cr] < 0 {
					r = int(cr)
					break
				}
			}
		}
		rows, coefs := ws.colRows[ws.basic[pos]], ws.colCoefs[ws.basic[pos]]
		d := 0.0
		for k, cr := range rows {
			if int(cr) == r {
				d = coefs[k]
				break
			}
		}
		if math.Abs(d) <= pivotTol {
			return 0, errSingular
		}
		f.place(nPiv, r, pos, d)
		nPiv++
		for _, p := range f.rowPos[f.rowStart[r]:f.rowStart[r+1]] {
			if f.colCnt[p] > 0 {
				if f.colCnt[p]--; f.colCnt[p] == 1 {
					f.stack = append(f.stack, int32(m)+p) //janus:allow(hotalloc): the stack keeps its capacity across refactorizations
				}
			}
		}
		for _, cr := range rows {
			if f.rowOrd[cr] < 0 {
				if f.rowCnt[cr]--; f.rowCnt[cr] == 1 {
					f.stack = append(f.stack, cr) //janus:allow(hotalloc): the stack keeps its capacity across refactorizations
				}
			}
		}
	}
	return nPiv, nil
}

// place makes (row r, position pos) with diagonal d pivot t.
func (f *factor) place(t, r, pos int, d float64) {
	f.rowOrd[r] = int32(t)
	f.pivRow[t], f.pivPos[t], f.pivVal[t] = int32(r), int32(pos), d
	f.colCnt[pos] = -1
}

// factorBump gathers the rows and positions the peel left active into the
// dense b×b bump, factorizes it in place with partial pivoting, and appends
// its pivots (in elimination order) after the nSingle peeled ones.
func (ws *workspace) factorBump(nSingle int) error {
	f := &ws.fac
	m := ws.m
	b := m - nSingle
	if b == 0 {
		return nil
	}
	f.bumpRow, f.bumpPos = f.bumpRow[:0], f.bumpPos[:0]
	for r := 0; r < m; r++ {
		if f.rowOrd[r] < 0 {
			f.bumpIdx[r] = int32(len(f.bumpRow))
			f.bumpRow = append(f.bumpRow, int32(r)) //janus:allow(hotalloc): grows to the largest bump seen, then is reused
		}
	}
	for pos := range ws.basic {
		if f.colCnt[pos] >= 0 {
			f.bumpPos = append(f.bumpPos, int32(pos)) //janus:allow(hotalloc): grows to the largest bump seen, then is reused
		}
	}
	if cap(f.lu) < b*b {
		f.lu = make([]float64, b*b) //janus:allow(hotalloc): grows to the largest bump seen, then is reused
	}
	lu := f.lu[:b*b]
	for i := range lu {
		lu[i] = 0
	}
	for j, pos := range f.bumpPos {
		v := ws.basic[pos]
		for k, r := range ws.colRows[v] {
			if f.rowOrd[r] < 0 {
				lu[int(f.bumpIdx[r])*b+j] = ws.colCoefs[v][k]
			}
		}
	}
	for c := 0; c < b; c++ {
		piv, best := -1, pivotTol
		for i := c; i < b; i++ {
			if a := math.Abs(lu[i*b+c]); a > best {
				piv, best = i, a
			}
		}
		if piv < 0 {
			return errSingular
		}
		if piv != c {
			f.bumpRow[c], f.bumpRow[piv] = f.bumpRow[piv], f.bumpRow[c]
			rc, rp := lu[c*b:c*b+b], lu[piv*b:piv*b+b]
			for j := range rc {
				rc[j], rp[j] = rp[j], rc[j]
			}
		}
		d := lu[c*b+c]
		pivRow := lu[c*b+c+1 : c*b+b]
		for i := c + 1; i < b; i++ {
			l := lu[i*b+c]
			if l == 0 { //janus:allow(floatcmp): exact-zero sparsity guard: skips a provably no-op elimination row
				continue
			}
			l /= d
			lu[i*b+c] = l
			row := lu[i*b+c+1 : i*b+b]
			for j, u := range pivRow {
				row[j] -= l * u
			}
		}
	}
	for c := 0; c < b; c++ {
		t := nSingle + c
		f.rowOrd[f.bumpRow[c]] = int32(t)
		f.pivRow[t], f.pivPos[t], f.pivVal[t] = f.bumpRow[c], f.bumpPos[c], lu[c*b+c]
	}
	return nil
}

// invert overwrites binv0 with U⁻¹·L⁻¹ for the factorization peel and
// factorBump left in ws.fac. Row pivPos[t] of binv0 is row t of the inverse
// in pivot order, so both triangular solves are updates of whole binv0
// rows: the forward pass walks the pivots up and subtracts each finished
// row of L⁻¹ from the later rows its column reaches, the backward pass walks
// them down, scales by the diagonal and subtracts from the earlier rows.
//
// The rows stay sparse (a tenth to a third full on the period models), and
// a worker's binv0 is rarely in cache, so an update must not walk a whole
// row to find the few entries that matter: f.mask keeps one bit per binv0
// entry that may be nonzero, an update reads its source row's bits, touches
// only those columns and ORs the bits into the target's.
func (ws *workspace) invert(nSingle int) {
	f := &ws.fac
	m, n := ws.m, ws.n
	b := m - nSingle
	lu := f.lu[:b*b]
	binv := ws.binv0
	for i := range binv {
		binv[i] = 0
	}
	for i := range f.mask {
		f.mask[i] = 0
	}
	for t := 0; t < m; t++ {
		p, r := int(f.pivPos[t]), int(f.pivRow[t])
		binv[p*m+r] = 1
		f.mask[p*f.words+r/64] |= 1 << (r % 64)
	}

	for s := 0; s < m; s++ {
		v := ws.basic[f.pivPos[s]]
		if v >= n {
			continue // unit column: nothing below the diagonal
		}
		var at []int32 // gathered on first use: most columns reach no later row
		if s >= nSingle {
			at = ws.rowCols(s)
			for c, c2 := s-nSingle, s-nSingle+1; c2 < b; c2++ {
				ws.addRow(nSingle+c2, s, at, -lu[c2*b+c])
			}
			continue
		}
		d := f.pivVal[s]
		for k, r := range ws.colRows[v] {
			if t := int(f.rowOrd[r]); t > s {
				if at == nil {
					at = ws.rowCols(s)
				}
				ws.addRow(t, s, at, -ws.colCoefs[v][k]/d)
			}
		}
	}

	for s := m - 1; s >= 0; s-- {
		p := int(f.pivPos[s])
		v := ws.basic[p]
		if v >= n {
			continue // unit column: diagonal 1, nothing above it
		}
		at := ws.rowCols(s)
		if d := f.pivVal[s]; d != 1 { //janus:allow(floatcmp): exact-one guard: skips a no-op scaling
			for _, j := range at {
				binv[p*m+int(j)] /= d
			}
		}
		above := s // pivots before `above` take their U entry from the sparse column
		if s >= nSingle {
			above = nSingle
			for c, c2 := s-nSingle, 0; c2 < c; c2++ {
				ws.addRow(nSingle+c2, s, at, -lu[c2*b+c])
			}
		}
		for k, r := range ws.colRows[v] {
			if t := int(f.rowOrd[r]); t < above {
				ws.addRow(t, s, at, -ws.colCoefs[v][k])
			}
		}
	}
}

// rowCols lists, from the mask, the columns in which pivot t's row of binv0
// may be nonzero. The list is valid until the next call.
func (ws *workspace) rowCols(t int) []int32 {
	f := &ws.fac
	p := int(f.pivPos[t])
	at := f.at[:0]
	for w, word := range f.mask[p*f.words : (p+1)*f.words] {
		for ; word != 0; word &= word - 1 {
			at = append(at, int32(w*64+bits.TrailingZeros64(word))) //janus:allow(hotalloc): at has capacity m and a row has at most m columns, so this never grows
		}
	}
	return at
}

// addRow adds a times pivot src's row of binv0 to pivot dst's, over the
// columns at = rowCols(src), and marks them in dst's mask.
func (ws *workspace) addRow(dst, src int, at []int32, a float64) {
	if a == 0 { //janus:allow(floatcmp): exact-zero sparsity guard: a zero multiplier leaves the row unchanged
		return
	}
	f := &ws.fac
	m, words := ws.m, f.words
	pd, ps := int(f.pivPos[dst]), int(f.pivPos[src])
	y, x := ws.binv0[pd*m:pd*m+m], ws.binv0[ps*m:ps*m+m]
	for _, j := range at {
		y[j] += a * x[j]
	}
	md, ms := f.mask[pd*words:(pd+1)*words], f.mask[ps*words:(ps+1)*words]
	for w, word := range ms {
		md[w] |= word
	}
}
