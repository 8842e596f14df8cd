package markov

import (
	"fmt"
	"math"
)

// gaussSeidelTol and gaussSeidelMaxIter bound AbsorptionProbability's
// iterative solve.
const (
	gaussSeidelTol     = 1e-12
	gaussSeidelMaxIter = 100000
)

// AbsorptionProbability solves, for every state i, the probability that a
// walker starting at i is absorbed at `target` rather than any other
// member of the absorbing set: b_i = P_{i,target} + Σ_{j transient}
// p_ij·b_j. For the Absorbing Time recommender this answers "*which* of
// the user's rated items does a candidate item drain into", a diagnostic
// for explaining recommendations. target must be a member of absorbing.
// States that cannot reach the absorbing set get probability 0. The system
// is solved by Gauss–Seidel; when a sweep still moves some b_i by
// gaussSeidelTol or more after gaussSeidelMaxIter sweeps (long chains
// converge slowly), the result is an error, not the unconverged vector.
func (c *Chain) AbsorptionProbability(absorbing []int, target int) ([]float64, error) {
	mask, err := c.validateAbsorbing(absorbing)
	if err != nil {
		return nil, err
	}
	if target < 0 || target >= c.n || !mask[target] {
		return nil, fmt.Errorf("markov: target %d is not an absorbing state", target)
	}
	reach := c.reachable(mask)
	transient := make([]int, 0, c.n)
	for i := 0; i < c.n; i++ {
		if !mask[i] && reach[i] {
			transient = append(transient, i)
		}
	}
	// Gauss–Seidel in place: b is 1 at target and 0 at the other absorbing
	// states throughout, and no transient state has an unreachable
	// neighbour, so each sweep reads every neighbour's current value. The
	// iteration matrix is the substochastic P_TT, so convergence is
	// monotone from zero.
	b := make([]float64, c.n)
	b[target] = 1
	for iter := 0; iter < gaussSeidelMaxIter; iter++ {
		maxDelta := 0.0
		for _, i := range transient {
			d := c.degrees[i]
			cols, vals := c.adj.Row(i)
			acc := 0.0
			for k, j := range cols {
				acc += vals[k] / d * b[j]
			}
			if delta := math.Abs(acc - b[i]); delta > maxDelta {
				maxDelta = delta
			}
			b[i] = acc
		}
		if maxDelta < gaussSeidelTol {
			return b, nil
		}
	}
	return nil, fmt.Errorf("markov: absorption probabilities did not converge in %d Gauss-Seidel sweeps (%d transient states)", gaussSeidelMaxIter, len(transient))
}
