// Package markov implements the random-walk machinery of Sections 3 and 4
// of the paper: transition probabilities on a weighted graph (Eq. 1),
// stationary distributions (Eq. 2), hitting times (Definition 1, Eq. 5),
// absorbing times (Definition 3, Eq. 6) and entropy-weighted absorbing
// costs (Eq. 8/9).
//
// Each quantity comes in two flavors:
//
//   - Exact: solve the first-step-analysis linear system
//     (I - P_TT)·x = rhs over the transient states. Small systems use dense
//     Gaussian elimination; larger ones use Gauss–Seidel, which converges
//     for absorbing chains because P_TT is strictly substochastic on every
//     state that can reach the absorbing set.
//   - Truncated: iterate the dynamic-programming recurrence a fixed number
//     of times τ (Algorithm 1 step 4). This is the paper's production path;
//     only the induced ranking matters, not the exact values.
//
// States that cannot reach the absorbing set have infinite absorbing time;
// exact solvers report +Inf for them.
package markov

import (
	"errors"
	"fmt"
	"math"

	"longtailrec/internal/linalg"
	"longtailrec/internal/sparse"
)

// ErrNoAbsorbing is returned when an empty absorbing set is supplied.
var ErrNoAbsorbing = errors.New("markov: absorbing set is empty")

// maxDenseSolveVar is the largest transient-state count solved by dense
// Gaussian elimination; beyond it the exact solvers switch to Gauss–Seidel.
// It is a variable only so tests can force the iterative path.
var maxDenseSolveVar = 1500

// gaussSeidelTol and gaussSeidelMaxIter bound the iterative exact solver.
const (
	gaussSeidelTol     = 1e-12
	gaussSeidelMaxIter = 100000
)

// Chain wraps a symmetric weighted adjacency matrix with its degree vector
// and exposes random-walk quantities. The adjacency is shared, not copied.
type Chain struct {
	adj     *sparse.CSR
	degrees []float64
	n       int
}

// NewChain builds a Chain from a symmetric adjacency matrix. It validates
// squareness but trusts symmetry (the graph package guarantees it).
func NewChain(adj *sparse.CSR) (*Chain, error) {
	r, c := adj.Dims()
	if r != c {
		return nil, fmt.Errorf("markov: adjacency must be square, got %dx%d", r, c)
	}
	degrees := make([]float64, r)
	for i := 0; i < r; i++ {
		degrees[i] = adj.RowSum(i)
	}
	return NewChainWithDegrees(adj, degrees)
}

// NewChainWithDegrees builds a Chain reusing a precomputed degree vector
// (e.g. the one cached on graph.Subgraph), skipping the per-row sum pass.
// The degree slice is aliased, not copied.
func NewChainWithDegrees(adj *sparse.CSR, degrees []float64) (*Chain, error) {
	ch := &Chain{}
	if err := ch.Reset(adj, degrees); err != nil {
		return nil, err
	}
	return ch, nil
}

// Reset re-points an existing Chain at a new adjacency with its precomputed
// degree vector, so per-query hot paths can keep one Chain value in scratch
// instead of allocating one per query. degrees must hold the row sums of
// adj; both are aliased. A block record declared on adj (see
// sparse.CSR.DeclareBlocks) comes with it: the fused sweeps schedule by it,
// every other solver ignores it.
func (c *Chain) Reset(adj *sparse.CSR, degrees []float64) error {
	r, cols := adj.Dims()
	if r != cols {
		return fmt.Errorf("markov: adjacency must be square, got %dx%d", r, cols)
	}
	if len(degrees) != r {
		return fmt.Errorf("markov: %d degrees for %d states", len(degrees), r)
	}
	c.adj, c.degrees, c.n = adj, degrees, r
	return nil
}

// Len returns the number of states.
func (c *Chain) Len() int { return c.n }

// Degree returns the weighted degree of state i.
func (c *Chain) Degree(i int) float64 { return c.degrees[i] }

// TransitionProb returns p_ij = a(i,j)/d_i (Eq. 1); zero if d_i = 0.
func (c *Chain) TransitionProb(i, j int) float64 {
	if c.degrees[i] == 0 {
		return 0
	}
	return c.adj.At(i, j) / c.degrees[i]
}

// Stationary returns the degree-proportional stationary distribution
// (Eq. 2). For a disconnected graph this is still the formula the paper
// uses; it is the stationary distribution restricted to each component.
func (c *Chain) Stationary() []float64 {
	pi := make([]float64, c.n)
	total := 0.0
	for _, d := range c.degrees {
		total += d
	}
	if total == 0 {
		return pi
	}
	for i, d := range c.degrees {
		pi[i] = d / total
	}
	return pi
}

// StepDistribution advances a probability distribution one step:
// out = Pᵀ·in. States with zero degree keep their mass in place (self-loop
// convention), so the result remains a distribution.
func (c *Chain) StepDistribution(in, out []float64) {
	if len(in) != c.n || len(out) != c.n {
		panic("markov: StepDistribution length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < c.n; i++ {
		mass := in[i]
		if mass == 0 {
			continue
		}
		if c.degrees[i] == 0 {
			out[i] += mass
			continue
		}
		cols, vals := c.adj.Row(i)
		inv := mass / c.degrees[i]
		for k, j := range cols {
			out[j] += vals[k] * inv
		}
	}
}

// LazyStationaryPower estimates the stationary distribution by power
// iteration on the lazy walk (I+P)/2, which converges even on bipartite
// (periodic) graphs and has the same stationary distribution. Intended for
// tests cross-checking Eq. 2.
func (c *Chain) LazyStationaryPower(iters int, tol float64) []float64 {
	cur := make([]float64, c.n)
	nxt := make([]float64, c.n)
	// Start from the degree-weighted seed restricted to non-isolated states.
	active := 0
	for _, d := range c.degrees {
		if d > 0 {
			active++
		}
	}
	if active == 0 {
		return cur
	}
	for i, d := range c.degrees {
		if d > 0 {
			cur[i] = 1 / float64(active)
		}
	}
	for t := 0; t < iters; t++ {
		c.StepDistribution(cur, nxt)
		diff := 0.0
		for i := range nxt {
			nxt[i] = 0.5*cur[i] + 0.5*nxt[i]
			diff += math.Abs(nxt[i] - cur[i])
		}
		cur, nxt = nxt, cur
		if diff < tol {
			break
		}
	}
	return cur
}

// validateAbsorbing normalizes an absorbing-state list into a membership
// mask, rejecting empty or out-of-range input.
func (c *Chain) validateAbsorbing(absorbing []int) ([]bool, error) {
	if len(absorbing) == 0 {
		return nil, ErrNoAbsorbing
	}
	mask := make([]bool, c.n)
	for _, s := range absorbing {
		if s < 0 || s >= c.n {
			return nil, fmt.Errorf("markov: absorbing state %d out of range [0,%d)", s, c.n)
		}
		mask[s] = true
	}
	return mask, nil
}

// reachable returns the states that can reach the absorbing set, via BFS on
// the (undirected) graph starting from the absorbing states.
func (c *Chain) reachable(mask []bool) []bool {
	seen := make([]bool, c.n)
	queue := make([]int, 0, c.n)
	for s, a := range mask {
		if a {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		cols, _ := c.adj.Row(v)
		for _, w := range cols {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// AbsorbingTimeExact solves Eq. 6 exactly: AT(S|i) for every state i.
// Absorbing states get 0; states that cannot reach S get +Inf.
func (c *Chain) AbsorbingTimeExact(absorbing []int) ([]float64, error) {
	ones := make([]float64, c.n)
	for i := range ones {
		ones[i] = 1
	}
	return c.AbsorbingCostExact(absorbing, ones)
}

// AbsorbingCostExact solves Eq. 8 exactly with a per-state expected step
// cost: AC(S|i) = stepCost[i] + Σ_j p_ij AC(S|j) for transient i.
// stepCost[i] must already be the expectation Σ_j p_ij c(j|i); use
// StepCosts to build it from per-destination entry costs. With
// stepCost ≡ 1 this reduces to AbsorbingTimeExact.
func (c *Chain) AbsorbingCostExact(absorbing []int, stepCost []float64) ([]float64, error) {
	if len(stepCost) != c.n {
		return nil, fmt.Errorf("markov: stepCost length %d, want %d", len(stepCost), c.n)
	}
	mask, err := c.validateAbsorbing(absorbing)
	if err != nil {
		return nil, err
	}
	reach := c.reachable(mask)
	out := make([]float64, c.n)
	// Collect reachable transient states.
	transient := make([]int, 0, c.n)
	localOf := make(map[int]int)
	for i := 0; i < c.n; i++ {
		switch {
		case mask[i]:
			out[i] = 0
		case !reach[i]:
			out[i] = math.Inf(1)
		default:
			localOf[i] = len(transient)
			transient = append(transient, i)
		}
	}
	if len(transient) == 0 {
		return out, nil
	}
	if len(transient) <= maxDenseSolveVar {
		if err := c.solveDense(transient, localOf, mask, stepCost, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := c.solveGaussSeidel(transient, localOf, mask, stepCost, out); err != nil {
		return nil, err
	}
	return out, nil
}

// solveDense fills out[] for the transient states by dense Gaussian
// elimination on (I - P_TT)·x = stepCost_T.
func (c *Chain) solveDense(transient []int, localOf map[int]int, mask []bool, stepCost, out []float64) error {
	nt := len(transient)
	a := linalg.NewDense(nt, nt)
	b := make([]float64, nt)
	for li, i := range transient {
		a.Set(li, li, 1)
		b[li] = stepCost[i]
		d := c.degrees[i]
		if d == 0 {
			// Transient state with no transitions: cannot be reached here
			// because reachability requires an edge, but guard anyway.
			continue
		}
		cols, vals := c.adj.Row(i)
		for k, j := range cols {
			if mask[j] {
				continue // absorbing neighbors contribute 0 to the sum
			}
			lj, ok := localOf[j]
			if !ok {
				continue
			}
			a.Add(li, lj, -vals[k]/d)
		}
	}
	if err := linalg.SolveInPlace(a, b); err != nil {
		return fmt.Errorf("markov: absorbing system: %w", err)
	}
	for li, i := range transient {
		out[i] = b[li]
	}
	return nil
}

// solveGaussSeidel fills out[] via Gauss–Seidel sweeps
// x_i ← stepCost_i + Σ_j p_ij x_j, which converge monotonically from zero
// for absorbing chains.
func (c *Chain) solveGaussSeidel(transient []int, localOf map[int]int, mask []bool, stepCost, out []float64) error {
	nt := len(transient)
	x := make([]float64, nt)
	for iter := 0; iter < gaussSeidelMaxIter; iter++ {
		maxDelta := 0.0
		for li, i := range transient {
			acc := stepCost[i]
			d := c.degrees[i]
			cols, vals := c.adj.Row(i)
			for k, j := range cols {
				if mask[j] {
					continue
				}
				if lj, ok := localOf[j]; ok {
					acc += vals[k] / d * x[lj]
				}
			}
			if delta := math.Abs(acc - x[li]); delta > maxDelta {
				maxDelta = delta
			}
			x[li] = acc
		}
		if maxDelta < gaussSeidelTol {
			for li, i := range transient {
				out[i] = x[li]
			}
			return nil
		}
	}
	return fmt.Errorf("markov: Gauss-Seidel did not converge in %d iterations (n=%d)", gaussSeidelMaxIter, nt)
}

// AbsorbingTimeTruncated runs the Algorithm 1 recurrence for tau
// iterations: AT_{t+1}(S|i) = 1 + Σ_j p_ij·AT_t(S|j), AT ≡ 0 on S and at
// t=0. The returned values lower-bound the exact absorbing time and
// converge to it as tau → ∞; the paper uses τ = 15.
func (c *Chain) AbsorbingTimeTruncated(absorbing []int, tau int) ([]float64, error) {
	ones := make([]float64, c.n)
	for i := range ones {
		ones[i] = 1
	}
	return c.AbsorbingCostTruncated(absorbing, ones, tau)
}

// AbsorbingCostTruncated is the truncated-iteration analogue of
// AbsorbingCostExact (Eq. 8 with τ dynamic-programming sweeps).
func (c *Chain) AbsorbingCostTruncated(absorbing []int, stepCost []float64, tau int) ([]float64, error) {
	if len(stepCost) != c.n {
		return nil, fmt.Errorf("markov: stepCost length %d, want %d", len(stepCost), c.n)
	}
	if tau < 0 {
		return nil, fmt.Errorf("markov: negative iteration count %d", tau)
	}
	mask, err := c.validateAbsorbing(absorbing)
	if err != nil {
		return nil, err
	}
	cur := make([]float64, c.n)
	nxt := make([]float64, c.n)
	for t := 0; t < tau; t++ {
		for i := 0; i < c.n; i++ {
			if mask[i] {
				nxt[i] = 0
				continue
			}
			d := c.degrees[i]
			if d == 0 {
				// Isolated transient state: never absorbed. Keep it at the
				// running maximum-plus-one so the ranking places it last.
				nxt[i] = cur[i] + stepCost[i]
				continue
			}
			acc := stepCost[i]
			cols, vals := c.adj.Row(i)
			for k, j := range cols {
				acc += vals[k] / d * cur[j]
			}
			nxt[i] = acc
		}
		cur, nxt = nxt, cur
	}
	return cur, nil
}

// HittingTimeExact returns H(target|j) (Definition 1) for every start
// state j: the expected steps to first reach target. It is the absorbing
// time with S = {target}.
func (c *Chain) HittingTimeExact(target int) ([]float64, error) {
	return c.AbsorbingTimeExact([]int{target})
}

// HittingTimeTruncated is the τ-step truncated hitting time.
func (c *Chain) HittingTimeTruncated(target, tau int) ([]float64, error) {
	return c.AbsorbingTimeTruncated([]int{target}, tau)
}

// StepCosts converts per-destination entry costs into per-state expected
// step costs: stepCost[i] = Σ_j p_ij·enterCost[j]. This realizes the
// entropy-cost model of Eq. 9, where entering user j costs E(j) and
// entering an item costs the constant C.
func (c *Chain) StepCosts(enterCost []float64) []float64 {
	return c.StepCostsInto(enterCost, make([]float64, c.n))
}
