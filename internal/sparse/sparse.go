// Package sparse implements the hand-rolled sparse matrix structures that
// underpin every graph and factor model in this library: coordinate-format
// builders (COO), compressed sparse row/column matrices (CSR/CSC), and the
// vector kernels (matvec, transpose-matvec, row slicing) the random-walk and
// SVD code needs.
//
// The Go ecosystem has no standard sparse package, so these are implemented
// from scratch on plain slices. All matrices are immutable after
// construction; builders are the mutable entry point.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Entry is a single (row, column, value) coordinate.
type Entry struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format builder for sparse matrices. Duplicate
// coordinates are summed when the matrix is compiled to CSR/CSC.
type COO struct {
	rows, cols int
	entries    []Entry
}

// NewCOO creates an empty rows×cols coordinate builder.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: NewCOO(%d, %d) negative dimension", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Dims returns the (rows, cols) shape.
func (c *COO) Dims() (int, int) { return c.rows, c.cols }

// NNZ returns the number of stored entries (duplicates counted separately).
func (c *COO) NNZ() int { return len(c.entries) }

// Add appends value v at (i, j). Zero values are kept so callers can encode
// explicit zeros; they are dropped during compilation.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO.Add(%d, %d) out of bounds for %dx%d", i, j, c.rows, c.cols))
	}
	c.entries = append(c.entries, Entry{Row: i, Col: j, Val: v})
}

// Entries returns a copy of the raw coordinate list.
func (c *COO) Entries() []Entry {
	out := make([]Entry, len(c.entries))
	copy(out, c.entries)
	return out
}

// CSR is an immutable compressed-sparse-row matrix. Within each row, column
// indices are strictly increasing and values are the (deduplicated) sums of
// the COO entries. Zero-sum entries are dropped.
type CSR struct {
	rows, cols int
	rowPtr     []int // length rows+1
	colIdx     []int // length nnz
	vals       []float64

	// blockA, blockB are the boundaries recorded by DeclareBlocks; blocked
	// says whether any were.
	blockA, blockB int
	blocked        bool
}

// ToCSR compiles the builder into a CSR matrix, summing duplicates and
// dropping entries whose summed value is exactly zero.
func (c *COO) ToCSR() *CSR {
	type key struct{ r, c int }
	// Deduplicate with a map first (entry order in COO is arbitrary).
	agg := make(map[key]float64, len(c.entries))
	for _, e := range c.entries {
		agg[key{e.Row, e.Col}] += e.Val
	}
	compact := make([]Entry, 0, len(agg))
	for k, v := range agg {
		if v != 0 {
			compact = append(compact, Entry{Row: k.r, Col: k.c, Val: v})
		}
	}
	sort.Slice(compact, func(a, b int) bool {
		if compact[a].Row != compact[b].Row {
			return compact[a].Row < compact[b].Row
		}
		return compact[a].Col < compact[b].Col
	})
	m := &CSR{
		rows:   c.rows,
		cols:   c.cols,
		rowPtr: make([]int, c.rows+1),
		colIdx: make([]int, len(compact)),
		vals:   make([]float64, len(compact)),
	}
	for i, e := range compact {
		m.rowPtr[e.Row+1]++
		m.colIdx[i] = e.Col
		m.vals[i] = e.Val
	}
	for r := 0; r < c.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// NewCSRFromDense builds a CSR matrix from a dense row-major [][]float64.
// Intended for tests and small worked examples.
func NewCSRFromDense(d [][]float64) *CSR {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	coo := NewCOO(rows, cols)
	for i, row := range d {
		if len(row) != cols {
			panic("sparse: ragged dense input")
		}
		for j, v := range row {
			if v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}

// NewCSRView wraps pre-built CSR storage without copying it. The slices are
// aliased, not owned: the caller promises they already satisfy the CSR
// invariants (rowPtr of length rows+1, non-decreasing, strictly increasing
// column indices within each row) and remain unmodified for the lifetime of
// the returned matrix. A block record added with DeclareBlocks is one more
// such promise. This is the zero-copy entry point for scratch-backed
// per-query submatrices (subgraph extraction); everything else should go
// through COO.ToCSR.
func NewCSRView(rows, cols int, rowPtr, colIdx []int, vals []float64) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: NewCSRView(%d, %d) negative dimension", rows, cols))
	}
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("sparse: NewCSRView rowPtr length %d, want %d", len(rowPtr), rows+1))
	}
	if len(colIdx) != len(vals) {
		panic(fmt.Sprintf("sparse: NewCSRView colIdx length %d != vals length %d", len(colIdx), len(vals)))
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// DeclareBlocks records that rows [a,b) and rows [b,rows) of a square matrix
// are two independent sets: no stored entry joins two rows of the same
// block, so a row of one block holds only columns below a or inside the
// other block. Like the CSR invariants of NewCSRView this is the caller's
// promise and is not checked. It is part of construction — call it before
// the matrix is shared — and returns m; matrices derived from m (Scale,
// Transpose, ...) carry no record.
func (m *CSR) DeclareBlocks(a, b int) *CSR {
	if m.rows != m.cols || a < 0 || a > b || b > m.rows {
		panic(fmt.Sprintf("sparse: DeclareBlocks(%d, %d) on a %dx%d matrix", a, b, m.rows, m.cols))
	}
	m.blockA, m.blockB, m.blocked = a, b, true
	return m
}

// Blocks returns the boundaries recorded by DeclareBlocks; ok is false when
// none were.
func (m *CSR) Blocks() (a, b int, ok bool) { return m.blockA, m.blockB, m.blocked }

// Dims returns the (rows, cols) shape.
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// Row returns the column indices and values of row i. The returned slices
// alias internal storage and must not be modified.
//
//ltr:allocfree
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: CSR.Row(%d) out of bounds for %d rows", i, m.rows))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// RowNNZ returns the number of nonzeros in row i.
//
//ltr:allocfree
func (m *CSR) RowNNZ(i int) int {
	return m.rowPtr[i+1] - m.rowPtr[i]
}

// At returns the value at (i, j), zero if not stored. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: CSR.At(%d, %d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// RowSum returns the sum of values in row i (the weighted degree when the
// matrix is a graph adjacency).
func (m *CSR) RowSum(i int) float64 {
	_, vals := m.Row(i)
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// Sum returns the sum of all stored values.
func (m *CSR) Sum() float64 {
	s := 0.0
	for _, v := range m.vals {
		s += v
	}
	return s
}

// MulVec computes y = M·x. y must have length rows; x length cols.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch: M is %dx%d, x %d, y %d",
			m.rows, m.cols, len(x), len(y)))
	}
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		acc := 0.0
		for k := lo; k < hi; k++ {
			acc += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = acc
	}
}

// MulVecT computes y = Mᵀ·x without materializing the transpose.
// x must have length rows; y length cols. y is zeroed first.
func (m *CSR) MulVecT(x, y []float64) {
	if len(x) != m.rows || len(y) != m.cols {
		panic(fmt.Sprintf("sparse: MulVecT shape mismatch: M is %dx%d, x %d, y %d",
			m.rows, m.cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			y[m.colIdx[k]] += m.vals[k] * xi
		}
	}
}

// Transpose returns Mᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.vals)),
		vals:   make([]float64, len(m.vals)),
	}
	for _, j := range m.colIdx {
		t.rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		t.rowPtr[j+1] += t.rowPtr[j]
	}
	next := make([]int, m.cols)
	copy(next, t.rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := m.colIdx[k]
			pos := next[j]
			t.colIdx[pos] = i
			t.vals[pos] = m.vals[k]
			next[j]++
		}
	}
	return t
}

// Scale returns a new CSR with every value multiplied by s.
func (m *CSR) Scale(s float64) *CSR {
	out := m.clone()
	for i := range out.vals {
		out.vals[i] *= s
	}
	return out
}

// RowNormalized returns a new CSR whose rows each sum to 1 (rows that sum
// to zero are left empty). This is the random-walk transition matrix P of
// Eq. 1 when applied to a graph adjacency matrix.
func (m *CSR) RowNormalized() *CSR {
	out := m.clone()
	for i := 0; i < m.rows; i++ {
		lo, hi := out.rowPtr[i], out.rowPtr[i+1]
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += out.vals[k]
		}
		if sum == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			out.vals[k] /= sum
		}
	}
	return out
}

func (m *CSR) clone() *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: make([]int, len(m.rowPtr)),
		colIdx: make([]int, len(m.colIdx)),
		vals:   make([]float64, len(m.vals)),
	}
	copy(out.rowPtr, m.rowPtr)
	copy(out.colIdx, m.colIdx)
	copy(out.vals, m.vals)
	return out
}

// ToDense materializes the matrix as dense row-major storage. For tests and
// small systems only.
func (m *CSR) ToDense() [][]float64 {
	d := make([][]float64, m.rows)
	for i := range d {
		d[i] = make([]float64, m.cols)
		cols, vals := m.Row(i)
		for k, j := range cols {
			d[i][j] = vals[k]
		}
	}
	return d
}

// Equal reports whether two matrices have identical shape and entries
// within tol.
func (m *CSR) Equal(o *CSR, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols || len(m.vals) != len(o.vals) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for k := range m.vals {
		if m.colIdx[k] != o.colIdx[k] || math.Abs(m.vals[k]-o.vals[k]) > tol {
			return false
		}
	}
	return true
}

// SubmatrixRows returns the CSR restricted to the given rows (in the given
// order) with all columns retained. Used by subgraph extraction.
func (m *CSR) SubmatrixRows(rows []int) *CSR {
	nnz := 0
	for _, r := range rows {
		nnz += m.RowNNZ(r)
	}
	out := &CSR{
		rows:   len(rows),
		cols:   m.cols,
		rowPtr: make([]int, len(rows)+1),
		colIdx: make([]int, 0, nnz),
		vals:   make([]float64, 0, nnz),
	}
	for i, r := range rows {
		cols, vals := m.Row(r)
		out.colIdx = append(out.colIdx, cols...)
		out.vals = append(out.vals, vals...)
		out.rowPtr[i+1] = out.rowPtr[i] + len(cols)
	}
	return out
}

// Submatrix extracts the submatrix with the given row and column subsets,
// remapping indices to 0..len-1 in the given orders. This sits on the hot
// path of per-query subgraph extraction (Algorithm 1), so it builds the
// result directly in CSR form with a dense column map instead of going
// through a COO builder.
func (m *CSR) Submatrix(rows, cols []int) *CSR {
	colMap := make([]int, m.cols)
	for j := range colMap {
		colMap[j] = -1
	}
	for newJ, oldJ := range cols {
		colMap[oldJ] = newJ
	}
	out := &CSR{
		rows:   len(rows),
		cols:   len(cols),
		rowPtr: make([]int, len(rows)+1),
	}
	nnz := 0
	for _, oldI := range rows {
		nnz += m.RowNNZ(oldI)
	}
	out.colIdx = make([]int, 0, nnz)
	out.vals = make([]float64, 0, nnz)
	type pair struct {
		j int
		v float64
	}
	var scratch []pair
	for newI, oldI := range rows {
		cs, vs := m.Row(oldI)
		scratch = scratch[:0]
		for k, oldJ := range cs {
			if newJ := colMap[oldJ]; newJ >= 0 && vs[k] != 0 {
				scratch = append(scratch, pair{j: newJ, v: vs[k]})
			}
		}
		// Column order within a row follows the cols permutation, which is
		// arbitrary; restore the CSR invariant of increasing indices.
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].j < scratch[b].j })
		for _, p := range scratch {
			out.colIdx = append(out.colIdx, p.j)
			out.vals = append(out.vals, p.v)
		}
		out.rowPtr[newI+1] = len(out.colIdx)
	}
	return out
}

// Vec is a sparse vector keyed by index.
type Vec struct {
	n   int
	idx []int
	val []float64
}

// NewVec builds a sparse vector of logical length n from parallel
// index/value slices. Indices must be strictly increasing.
func NewVec(n int, idx []int, val []float64) *Vec {
	if len(idx) != len(val) {
		panic("sparse: NewVec index/value length mismatch")
	}
	for k, i := range idx {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("sparse: NewVec index %d out of range [0,%d)", i, n))
		}
		if k > 0 && idx[k-1] >= i {
			panic("sparse: NewVec indices must be strictly increasing")
		}
	}
	v := &Vec{n: n, idx: make([]int, len(idx)), val: make([]float64, len(val))}
	copy(v.idx, idx)
	copy(v.val, val)
	return v
}

// Len returns the logical length.
func (v *Vec) Len() int { return v.n }

// NNZ returns the number of stored entries.
func (v *Vec) NNZ() int { return len(v.idx) }

// Dot computes the dot product with a dense vector.
func (v *Vec) Dot(x []float64) float64 {
	if len(x) != v.n {
		panic("sparse: Vec.Dot length mismatch")
	}
	s := 0.0
	for k, i := range v.idx {
		s += v.val[k] * x[i]
	}
	return s
}

// At returns element i (zero if absent).
func (v *Vec) At(i int) float64 {
	k := sort.SearchInts(v.idx, i)
	if k < len(v.idx) && v.idx[k] == i {
		return v.val[k]
	}
	return 0
}

// Norm2 returns the Euclidean norm.
func (v *Vec) Norm2() float64 {
	s := 0.0
	for _, x := range v.val {
		s += x * x
	}
	return math.Sqrt(s)
}
