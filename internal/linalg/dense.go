// Package linalg provides the small dense linear-algebra kernels the
// library needs: a row-major dense matrix, QR factorization via modified
// Gram–Schmidt (for the randomized SVD), a symmetric eigensolver and
// basic vector operations.
//
// These are deliberately simple, allocation-transparent implementations;
// the systems solved here are small (subgraphs, k-dimensional factor
// spaces), so clarity beats blocked BLAS tricks.
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewDense(%d, %d)", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a Dense from a [][]float64 (copied).
func NewDenseFrom(d [][]float64) *Dense {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	m := NewDense(rows, cols)
	for i, row := range d {
		if len(row) != cols {
			panic("linalg: ragged input")
		}
		copy(m.data[i*cols:(i+1)*cols], row)
	}
	return m
}

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add accumulates v into element (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i; the slice aliases internal storage.
func (m *Dense) Row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// MulVec computes y = M·x.
func (m *Dense) MulVec(x, y []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("linalg: MulVec shape mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		acc := 0.0
		for j, v := range row {
			acc += v * x[j]
		}
		y[i] = acc
	}
}

// Mul returns M·B as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.Row(k)
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Col copies column j into dst (allocating if dst is nil) and returns it.
func (m *Dense) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.rows)
	}
	if len(dst) != m.rows {
		panic("linalg: Col dst length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*m.cols+j]
	}
	return dst
}

// SetCol overwrites column j from src.
func (m *Dense) SetCol(j int, src []float64) {
	if len(src) != m.rows {
		panic("linalg: SetCol length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = src[i]
	}
}

// QR computes a thin QR factorization of m (rows >= cols) by modified
// Gram–Schmidt with re-orthogonalization ("twice is enough"): m = Q·R where
// Q is rows×cols with orthonormal columns and R is cols×cols upper
// triangular. A column that is (numerically) linearly dependent on its
// predecessors yields a zero column in Q and a zero diagonal entry in R —
// plain MGS would instead normalize round-off noise into a badly
// non-orthogonal direction, which breaks downstream randomized SVD on
// rank-deficient inputs.
func QR(m *Dense) (q, r *Dense) {
	rows, cols := m.Dims()
	if rows < cols {
		panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", rows, cols))
	}
	q = NewDense(rows, cols)
	r = NewDense(cols, cols)
	v := make([]float64, rows)
	qi := make([]float64, rows)
	for j := 0; j < cols; j++ {
		m.Col(j, v)
		norm0 := Norm2(v)
		// Two orthogonalization passes against all previous columns.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				q.Col(i, qi)
				dot := Dot(qi, v)
				if dot == 0 {
					continue
				}
				r.Add(i, j, dot)
				AXPY(-dot, qi, v)
			}
		}
		norm := Norm2(v)
		// Column effectively in the span of its predecessors: drop it.
		if norm <= 1e-12*norm0 || norm0 == 0 {
			r.Set(j, j, 0)
			for i := range v {
				v[i] = 0
			}
			q.SetCol(j, v)
			continue
		}
		r.Set(j, j, norm)
		Scale(1/norm, v)
		q.SetCol(j, v)
	}
	return q, r
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// AXPY computes y += a·x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}
