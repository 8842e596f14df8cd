package markov

import (
	"fmt"
	"math"
)

// AbsorptionProbability solves, for every state i, the probability that a
// walker starting at i is absorbed at `target` rather than any other
// member of the absorbing set: b_i = P_{i,target} + Σ_{j transient}
// p_ij·b_j. For the Absorbing Time recommender this answers "*which* of
// the user's rated items does a candidate item drain into", a diagnostic
// for explaining recommendations. target must be a member of absorbing.
// States that cannot reach the absorbing set get probability 0.
func (c *Chain) AbsorptionProbability(absorbing []int, target int) ([]float64, error) {
	mask, err := c.validateAbsorbing(absorbing)
	if err != nil {
		return nil, err
	}
	if target < 0 || target >= c.n || !mask[target] {
		return nil, fmt.Errorf("markov: target %d is not an absorbing state", target)
	}
	reach := c.reachable(mask)
	out := make([]float64, c.n)
	out[target] = 1
	transient := make([]int, 0, c.n)
	localOf := make(map[int]int)
	for i := 0; i < c.n; i++ {
		if !mask[i] && reach[i] {
			localOf[i] = len(transient)
			transient = append(transient, i)
		}
	}
	if len(transient) == 0 {
		return out, nil
	}
	// Gauss–Seidel on b_i = p_{i,target} + Σ_{j transient} p_ij·b_j; the
	// iteration matrix is the same substochastic P_TT as the time solver,
	// so convergence is monotone from zero.
	x := make([]float64, len(transient))
	for iter := 0; iter < gaussSeidelMaxIter; iter++ {
		maxDelta := 0.0
		for li, i := range transient {
			d := c.degrees[i]
			cols, vals := c.adj.Row(i)
			acc := 0.0
			for k, j := range cols {
				switch {
				case j == target:
					acc += vals[k] / d
				case mask[j]:
					// Other absorbing states contribute 0.
				default:
					if lj, ok := localOf[j]; ok {
						acc += vals[k] / d * x[lj]
					}
				}
			}
			if delta := math.Abs(acc - x[li]); delta > maxDelta {
				maxDelta = delta
			}
			x[li] = acc
		}
		if maxDelta < gaussSeidelTol {
			break
		}
	}
	for li, i := range transient {
		out[i] = x[li]
	}
	return out, nil
}
