package linalg

import (
	"fmt"
	"math"
)

// SymEigen computes the full eigendecomposition of a symmetric matrix by
// the cyclic Jacobi rotation method: A = V·diag(vals)·Vᵀ with V's columns
// the eigenvectors. Eigenvalues are returned in descending order. The input
// is not modified. Intended for the small (k×k) systems arising inside the
// randomized SVD; complexity is O(n³) per sweep.
func SymEigen(a *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := a.Dims()
	if n != c {
		return nil, nil, fmt.Errorf("linalg: SymEigen on %dx%d non-square matrix", n, c)
	}
	// Verify symmetry up to round-off; being handed a wildly asymmetric
	// matrix is a programmer error worth surfacing.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-8*(1+math.Abs(a.At(i, j))) {
				return nil, nil, fmt.Errorf("linalg: SymEigen input not symmetric at (%d,%d)", i, j)
			}
		}
	}
	w := a.Clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Rotation angle that zeroes w[p][q].
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				cs := 1 / math.Sqrt(t*t+1)
				sn := t * cs
				// Apply the rotation to rows/cols p and q.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, cs*wkp-sn*wkq)
					w.Set(k, q, sn*wkp+cs*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, cs*wpk-sn*wqk)
					w.Set(q, k, sn*wpk+cs*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, cs*vkp-sn*vkq)
					v.Set(k, q, sn*vkp+cs*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[order[j]] > vals[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	sortedVals := make([]float64, n)
	vecs = NewDense(n, n)
	for newJ, oldJ := range order {
		sortedVals[newJ] = vals[oldJ]
		for i := 0; i < n; i++ {
			vecs.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return sortedVals, vecs, nil
}
