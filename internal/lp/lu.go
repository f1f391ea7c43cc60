package lp

// This file implements the sparse basis factorization of the revised
// simplex: B (permuted) = L·U with L and U stored as sparse
// position-space columns. The factorization peels triangular structure
// first — front positions from column singletons, back positions from
// row singletons — and factors only the remaining "bump" densely with
// partial pivoting, so refactorization costs ~O(nnz + bump³) instead of
// the dense O(m³), and FTRAN/BTRAN become sparse column sweeps instead
// of dense triangular substitutions. Slacks and artificials peel, but
// the bump is not small: on the PPME LP (124–126 rows) it averaged 35
// rows and reached 101, measured over every factorization of one pass
// of the benchmark's ppme workload.

// luEntry is one off-diagonal nonzero of L or U in position space.
type luEntry struct {
	pos int32
	val float64
}

// luFactor is a sparse LU factorization of a basis matrix.
type luFactor struct {
	m       int
	rowPos  []int32 // original row → position
	posRow  []int32 // position → original row
	slotPos []int32 // basis slot → position
	posSlot []int32 // position → basis slot

	lCol [][]luEntry // below-diagonal column entries of L (unit diag)
	uCol [][]luEntry // above-diagonal column entries of U
	diag []float64   // U diagonal (pivots), position space

	work []float64 // scratch, length m

	// factorization scratch (reused across refactorizations)
	rowCnt, colCnt []int32
	rowAlive       []bool
	colAlive       []bool
	rowEnt         [][]luEntry // row → (slot, val) of basis entries
	colEnt         [][]luEntry // slot → (row, val)
	stack          []int32
	bumpRows       []int32
	bumpCols       []int32
	dense          []float64 // bump block, nb × (nb + nBack)
	denseRow       []int32   // dense row index → original row
	colOf          []int32   // slot → dense column or -1
}

// factor (re)computes the factorization of the basis given by slots:
// column k of the basis is cols column basis[k]. It returns false when
// the basis is numerically singular.
func (f *luFactor) factor(cols *csc, basis []int) bool {
	m := len(basis)
	f.m = m
	f.ensure(m)
	// Gather basis columns and the row-wise transpose.
	for i := 0; i < m; i++ {
		f.rowEnt[i] = f.rowEnt[i][:0]
		f.rowCnt[i] = 0
		f.colCnt[i] = 0
		f.rowAlive[i] = true
		f.colAlive[i] = true
		f.rowPos[i] = -1
		f.slotPos[i] = -1
		f.lCol[i] = f.lCol[i][:0]
		f.uCol[i] = f.uCol[i][:0]
		f.diag[i] = 0
	}
	for k, j := range basis {
		rows, vals := cols.col(j)
		ent := f.colEnt[k][:0]
		for t, i := range rows {
			if StructZero(vals[t]) {
				continue
			}
			ent = append(ent, luEntry{pos: i, val: vals[t]})
		}
		f.colEnt[k] = ent
		f.colCnt[k] = int32(len(ent))
		for _, e := range ent {
			f.rowEnt[e.pos] = append(f.rowEnt[e.pos], luEntry{pos: int32(k), val: e.val})
		}
	}
	for i := 0; i < m; i++ {
		f.rowCnt[i] = int32(len(f.rowEnt[i]))
		if f.rowCnt[i] == 0 {
			return false // empty row: structurally singular
		}
	}
	for k := 0; k < m; k++ {
		if f.colCnt[k] == 0 {
			return false
		}
	}

	front, back := int32(0), int32(m-1)
	// Peel column singletons to the front and row singletons to the
	// back until neither remains. A singleton whose entry is too small
	// to pivot on is left for the bump's partial pivoting.
	for {
		progressed := false
		// Column singletons.
		f.stack = f.stack[:0]
		for k := 0; k < m; k++ {
			if f.colAlive[k] && f.colCnt[k] == 1 {
				f.stack = append(f.stack, int32(k))
			}
		}
		for len(f.stack) > 0 {
			k := f.stack[len(f.stack)-1]
			f.stack = f.stack[:len(f.stack)-1]
			if !f.colAlive[k] || f.colCnt[k] != 1 {
				continue
			}
			var piv luEntry
			found := false
			for _, e := range f.colEnt[k] {
				if f.rowAlive[e.pos] {
					piv = e
					found = true
					break
				}
			}
			if !found || abs(piv.val) < epsPiv {
				continue // leave for the bump
			}
			pos := front
			front++
			f.place(pos, piv.pos, k, piv.val)
			progressed = true
			for _, re := range f.rowEnt[piv.pos] {
				if c2 := re.pos; f.colAlive[c2] {
					f.colCnt[c2]--
					if f.colCnt[c2] == 1 {
						f.stack = append(f.stack, c2)
					}
				}
			}
			f.rowAlive[piv.pos] = false
			f.colAlive[k] = false
		}
		// Row singletons.
		f.stack = f.stack[:0]
		for i := 0; i < m; i++ {
			if f.rowAlive[i] && f.rowCnt[i] == 1 {
				f.stack = append(f.stack, int32(i))
			}
		}
		rowProgress := false
		for len(f.stack) > 0 {
			i := f.stack[len(f.stack)-1]
			f.stack = f.stack[:len(f.stack)-1]
			if !f.rowAlive[i] || f.rowCnt[i] != 1 {
				continue
			}
			var piv luEntry
			found := false
			for _, e := range f.rowEnt[i] {
				if f.colAlive[e.pos] {
					piv = e
					found = true
					break
				}
			}
			if !found || abs(piv.val) < epsPiv {
				continue
			}
			pos := back
			back--
			f.place(pos, i, piv.pos, piv.val)
			rowProgress = true
			for _, ce := range f.colEnt[piv.pos] {
				if r2 := ce.pos; f.rowAlive[r2] {
					f.rowCnt[r2]--
					if f.rowCnt[r2] == 1 {
						f.stack = append(f.stack, r2)
					}
				}
			}
			f.rowAlive[i] = false
			f.colAlive[piv.pos] = false
		}
		if !progressed && !rowProgress {
			break
		}
	}

	// Bump: everything still alive, positions front..back.
	f.bumpRows = f.bumpRows[:0]
	f.bumpCols = f.bumpCols[:0]
	for i := 0; i < m; i++ {
		if f.rowAlive[i] {
			f.bumpRows = append(f.bumpRows, int32(i))
		}
	}
	for k := 0; k < m; k++ {
		if f.colAlive[k] {
			f.bumpCols = append(f.bumpCols, int32(k))
		}
	}
	nb := len(f.bumpCols)
	if nb != len(f.bumpRows) || int32(front)+int32(nb) != back+1 {
		return false // should not happen; bail out safely
	}
	if nb > 0 {
		if !f.factorBump(front, nb) {
			return false
		}
	}
	// Assemble U from the untouched (front and back row) entries.
	// rowAlive is still true exactly for the bump rows here (peeling
	// cleared it for every placed row and factorBump never writes it).
	for i := 0; i < m; i++ {
		if f.rowAlive[i] {
			continue // bump rows: entries come from the eliminated block
		}
		pk := f.rowPos[i]
		for _, e := range f.rowEnt[i] {
			pj := f.slotPos[e.pos]
			if pj > pk {
				f.uCol[pj] = append(f.uCol[pj], luEntry{pos: pk, val: e.val})
			}
		}
	}
	return true
}

// place assigns (row, slot) to a peeled pivot position.
func (f *luFactor) place(pos, row, slot int32, piv float64) {
	f.rowPos[row] = pos
	f.posRow[pos] = row
	f.slotPos[slot] = pos
	f.posSlot[pos] = slot
	f.diag[pos] = piv
}

// factorBump densely factors the bump block (bump rows × bump columns,
// extended by the bump rows' entries in back columns, which the row
// operations also transform) with partial pivoting.
func (f *luFactor) factorBump(front int32, nb int) bool {
	m := f.m
	nBack := m - int(front) - nb
	width := nb + nBack
	if cap(f.dense) < nb*width {
		f.dense = make([]float64, nb*width)
	}
	d := f.dense[:nb*width]
	for i := range d {
		d[i] = 0
	}
	if cap(f.denseRow) < nb {
		f.denseRow = make([]int32, nb)
	}
	f.denseRow = f.denseRow[:nb]
	// Column position of bump col j is front+j; of back block column
	// nb+t it is front+nb+t.
	colOf := f.colOf
	for k := range colOf {
		colOf[k] = -1
	}
	for j, k := range f.bumpCols {
		colOf[k] = int32(j)
	}
	for t := 0; t < nBack; t++ {
		colOf[f.posSlot[int(front)+nb+t]] = int32(nb + t)
	}
	for bi, r := range f.bumpRows {
		f.denseRow[bi] = r
		row := d[bi*width : (bi+1)*width]
		for _, e := range f.rowEnt[r] {
			if c := colOf[e.pos]; c >= 0 {
				row[c] += e.val
			}
		}
	}
	for k := 0; k < nb; k++ {
		p, best := k, abs(d[k*width+k])
		for i := k + 1; i < nb; i++ {
			if a := abs(d[i*width+k]); a > best {
				p, best = i, a
			}
		}
		if best < epsPiv {
			return false
		}
		if p != k {
			for j := 0; j < width; j++ {
				d[p*width+j], d[k*width+j] = d[k*width+j], d[p*width+j]
			}
			f.denseRow[p], f.denseRow[k] = f.denseRow[k], f.denseRow[p]
		}
		piv := d[k*width+k]
		for i := k + 1; i < nb; i++ {
			mult := d[i*width+k] / piv
			if StructZero(mult) {
				continue
			}
			d[i*width+k] = mult
			ri, rk := d[i*width:(i+1)*width], d[k*width:(k+1)*width]
			for j := k + 1; j < width; j++ {
				ri[j] -= mult * rk[j]
			}
		}
	}
	// Install positions and the sparse L/U columns of the bump.
	for k := 0; k < nb; k++ {
		pos := front + int32(k)
		f.place(pos, f.denseRow[k], f.bumpCols[k], d[k*width+k])
	}
	for k := 0; k < nb; k++ {
		pos := int(front) + k
		// L below-diagonal entries of bump column k.
		for i := k + 1; i < nb; i++ {
			if v := d[i*width+k]; !StructZero(v) {
				f.lCol[pos] = append(f.lCol[pos], luEntry{pos: front + int32(i), val: v})
			}
		}
		// U above-diagonal bump entries of column k.
		for i := 0; i < k; i++ {
			if v := d[i*width+k]; !StructZero(v) {
				f.uCol[pos] = append(f.uCol[pos], luEntry{pos: front + int32(i), val: v})
			}
		}
	}
	// Bump rows × back columns: post-elimination U entries.
	for t := 0; t < nBack; t++ {
		pos := int(front) + nb + t
		for i := 0; i < nb; i++ {
			if v := d[i*width+nb+t]; !StructZero(v) {
				f.uCol[pos] = append(f.uCol[pos], luEntry{pos: front + int32(i), val: v})
			}
		}
	}
	return true
}

// ftran solves B·x = a in place (a and x in row/slot space: on entry
// x[i] is the rhs component of row i, on exit x[k] is the value of
// basis slot k).
func (f *luFactor) ftran(x []float64) {
	m := f.m
	w := f.work
	for pos := 0; pos < m; pos++ {
		w[pos] = x[f.posRow[pos]]
	}
	// L solve (unit diagonal, sparse columns).
	for k := 0; k < m; k++ {
		xk := w[k]
		if StructZero(xk) {
			continue
		}
		for _, e := range f.lCol[k] {
			w[e.pos] -= e.val * xk
		}
	}
	// U solve, backward column sweep.
	for k := m - 1; k >= 0; k-- {
		xk := w[k] / f.diag[k]
		w[k] = xk
		if StructZero(xk) {
			continue
		}
		for _, e := range f.uCol[k] {
			w[e.pos] -= e.val * xk
		}
	}
	for s := 0; s < m; s++ {
		x[s] = w[f.slotPos[s]]
	}
}

// btran solves y·B = c in place (c in slot space on entry, y in row
// space on exit).
func (f *luFactor) btran(y []float64) {
	m := f.m
	w := f.work
	// v·U = c·Q: forward column sweep.
	for k := 0; k < m; k++ {
		s := y[f.posSlot[k]]
		for _, e := range f.uCol[k] {
			if !StructZero(w[e.pos]) {
				s -= e.val * w[e.pos]
			}
		}
		w[k] = s / f.diag[k]
	}
	// u·L = v: backward (unit diagonal).
	for k := m - 1; k >= 0; k-- {
		s := w[k]
		for _, e := range f.lCol[k] {
			if !StructZero(w[e.pos]) {
				s -= e.val * w[e.pos]
			}
		}
		w[k] = s
	}
	for pos := 0; pos < m; pos++ {
		y[f.posRow[pos]] = w[pos]
	}
}

// ensure sizes the reusable buffers for an m-row basis.
func (f *luFactor) ensure(m int) {
	if cap(f.rowPos) >= m {
		f.rowPos = f.rowPos[:m]
		f.posRow = f.posRow[:m]
		f.slotPos = f.slotPos[:m]
		f.posSlot = f.posSlot[:m]
		f.diag = f.diag[:m]
		f.work = f.work[:m]
		f.rowCnt = f.rowCnt[:m]
		f.colCnt = f.colCnt[:m]
		f.rowAlive = f.rowAlive[:m]
		f.colAlive = f.colAlive[:m]
		f.lCol = f.lCol[:m]
		f.uCol = f.uCol[:m]
		f.rowEnt = f.rowEnt[:m]
		f.colEnt = f.colEnt[:m]
		f.colOf = f.colOf[:m]
		return
	}
	f.rowPos = make([]int32, m)
	f.posRow = make([]int32, m)
	f.slotPos = make([]int32, m)
	f.posSlot = make([]int32, m)
	f.diag = make([]float64, m)
	f.work = make([]float64, m)
	f.rowCnt = make([]int32, m)
	f.colCnt = make([]int32, m)
	f.rowAlive = make([]bool, m)
	f.colAlive = make([]bool, m)
	f.lCol = make([][]luEntry, m)
	f.uCol = make([][]luEntry, m)
	f.rowEnt = make([][]luEntry, m)
	f.colEnt = make([][]luEntry, m)
	f.colOf = make([]int32, m)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
