// Package markovtest is the dense exact solve of the absorbing random walk
// (Definition 3, Eqs. 6 and 8): the oracle that tests hold package markov's
// truncated sweeps and the walk recommenders to. It carries its own
// Gaussian elimination (SolveInPlace) and imports only sparse and linalg's
// dense matrix, so package markov's own tests can use it. Only test files may
// import it (TestMarkovtestOnlyInTests in the module root holds this).
package markovtest

import (
	"errors"
	"fmt"
	"math"

	"longtailrec/internal/linalg"
	"longtailrec/internal/sparse"
)

// TransitionProb returns p_ij = a(i,j)/d_i (Eq. 1) of the walk on the
// symmetric adjacency adj; 0 when state i has no edge.
func TransitionProb(adj *sparse.CSR, i, j int) float64 {
	d := adj.RowSum(i)
	if d == 0 {
		return 0
	}
	return adj.At(i, j) / d
}

// HittingTime returns H(target|i) (Definition 1) for every state i: the
// absorbing time with S = {target}.
func HittingTime(adj *sparse.CSR, target int) ([]float64, error) {
	return AbsorbingTime(adj, []int{target})
}

// AbsorbingTime returns AT(S|i) (Eq. 6) for every state i: AbsorbingCost
// with unit step costs.
func AbsorbingTime(adj *sparse.CSR, absorbing []int) ([]float64, error) {
	n, _ := adj.Dims()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	return AbsorbingCost(adj, absorbing, ones)
}

// AbsorbingCost solves AC(S|i) = stepCost[i] + Σ_j p_ij·AC(S|j) (Eq. 8)
// by dense Gaussian elimination on (I − P_TT)·x = stepCost_T over the
// transient states T that can reach S. stepCost[i] is the expected cost of
// a step from i (markov.Chain.StepCosts builds it from entry costs). The
// result is 0 on S and +Inf on the states that cannot reach S.
func AbsorbingCost(adj *sparse.CSR, absorbing []int, stepCost []float64) ([]float64, error) {
	n, cols := adj.Dims()
	if n != cols {
		return nil, fmt.Errorf("markovtest: adjacency must be square, got %dx%d", n, cols)
	}
	if len(stepCost) != n {
		return nil, fmt.Errorf("markovtest: stepCost length %d, want %d", len(stepCost), n)
	}
	if len(absorbing) == 0 {
		return nil, errors.New("markovtest: absorbing set is empty")
	}
	inS := make([]bool, n)
	for _, s := range absorbing {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("markovtest: absorbing state %d out of range [0,%d)", s, n)
		}
		inS[s] = true
	}
	// The states that can reach S: a BFS from S over the undirected edges.
	reach := append([]bool(nil), inS...)
	queue := append([]int(nil), absorbing...)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nbrs, _ := adj.Row(v)
		for _, w := range nbrs {
			if !reach[w] {
				reach[w] = true
				queue = append(queue, w)
			}
		}
	}
	out := make([]float64, n)
	local := make([]int, n)
	var transient []int
	for i := range out {
		switch {
		case inS[i]:
		case !reach[i]:
			out[i] = math.Inf(1)
		default:
			local[i] = len(transient)
			transient = append(transient, i)
		}
	}
	if len(transient) == 0 {
		return out, nil
	}
	a := linalg.NewDense(len(transient), len(transient))
	b := make([]float64, len(transient))
	for li, i := range transient {
		a.Set(li, li, 1)
		b[li] = stepCost[i]
		d := adj.RowSum(i) // > 0: i reaches S along an edge
		nbrs, vals := adj.Row(i)
		for k, j := range nbrs {
			if !inS[j] { // every neighbour of a reaching state reaches S
				a.Add(li, local[j], -vals[k]/d)
			}
		}
	}
	if err := SolveInPlace(a, b); err != nil {
		return nil, fmt.Errorf("markovtest: absorbing system: %w", err)
	}
	for li, i := range transient {
		out[i] = b[li]
	}
	return out, nil
}
