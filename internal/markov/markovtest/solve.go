package markovtest

import (
	"errors"
	"fmt"
	"math"

	"longtailrec/internal/linalg"
)

// ErrSingular is returned when a linear solve meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("markovtest: matrix is singular to working precision")

// SolveInPlace solves A·x = b by Gaussian elimination with partial
// pivoting, overwriting both A and b; on success b holds x. A must be
// square. Returns ErrSingular if a pivot is (effectively) zero.
func SolveInPlace(a *linalg.Dense, b []float64) error {
	n, cols := a.Dims()
	if cols != n {
		return fmt.Errorf("markovtest: Solve on non-square %dx%d matrix", n, cols)
	}
	if len(b) != n {
		return fmt.Errorf("markovtest: Solve rhs length %d, want %d", len(b), n)
	}
	const eps = 1e-13
	for col := 0; col < n; col++ {
		// Partial pivot: largest |a[r][col]| for r >= col.
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a.At(r, col)); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < eps {
			return ErrSingular
		}
		if pivot != col {
			rp, rc := a.Row(pivot), a.Row(col)
			for j := range rp {
				rp[j], rc[j] = rc[j], rp[j]
			}
			b[pivot], b[col] = b[col], b[pivot]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, rc := a.Row(r), a.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * rc[j]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := a.Row(i)
		acc := b[i]
		for j := i + 1; j < n; j++ {
			acc -= row[j] * b[j]
		}
		b[i] = acc / row[i]
	}
	return nil
}

// Solve solves A·x = b without mutating its inputs.
func Solve(a *linalg.Dense, b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	copy(x, b)
	if err := SolveInPlace(a.Clone(), x); err != nil {
		return nil, err
	}
	return x, nil
}
