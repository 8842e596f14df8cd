// Package markov implements the random walk of Sections 3 and 4 of the
// paper on a weighted graph: absorbing times (Definition 3, Eq. 6) and
// entropy-weighted absorbing costs (Eq. 8/9), from which hitting times
// (Definition 1) are the singleton case.
//
// There is one solver: τ truncated dynamic-programming sweeps of the
// first-step recurrence (Algorithm 1 step 4), whose values lower-bound the
// exact ones and converge to them as τ grows; the paper uses τ = 15, since
// only the induced ranking matters. AbsorbingCostFused is the production
// kernel; AbsorbingTimeTruncated and AbsorbingCostTruncated (fed by
// StepCosts) are its allocating reference forms. The exact solve of the
// linear system is a test oracle, package markovtest, which only tests
// import. AbsorptionProbability, behind /v1/explain, solves its own system
// by Gauss–Seidel and reports an error when that does not converge.
package markov

import (
	"errors"
	"fmt"

	"longtailrec/internal/sparse"
)

// ErrNoAbsorbing is returned when an empty absorbing set is supplied.
var ErrNoAbsorbing = errors.New("markov: absorbing set is empty")

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

// AbsorbingCostTruncated runs τ dynamic-programming sweeps of Eq. 8 with a
// per-state expected step cost: AC_{t+1}(S|i) = stepCost[i] + Σ_j
// p_ij·AC_t(S|j), AC ≡ 0 on S and at t=0. stepCost[i] must already be the
// expectation Σ_j p_ij c(j|i); StepCosts builds it from per-destination
// entry costs. With stepCost ≡ 1 this is AbsorbingTimeTruncated.
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

// StepCosts converts per-destination entry costs into per-state expected
// step costs: stepCost[i] = Σ_j p_ij·enterCost[j]. This realizes the
// entropy-cost model of Eq. 9, where entering user j costs E(j) and
// entering an item costs the constant C.
func (c *Chain) StepCosts(enterCost []float64) []float64 {
	if len(enterCost) != c.n {
		panic(fmt.Sprintf("markov: StepCosts length %d, want %d", len(enterCost), c.n))
	}
	out := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		d := c.degrees[i]
		if d == 0 {
			continue
		}
		cols, vals := c.adj.Row(i)
		acc := 0.0
		for k, j := range cols {
			acc += vals[k] * enterCost[j]
		}
		out[i] = acc / d
	}
	return out
}
