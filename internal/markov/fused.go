// Fused, scratch-backed variants of the Algorithm 1 truncated solvers.
// These are the production query path: the per-destination entry costs of
// Eq. 9 are folded into the dynamic-programming sweep itself, so each of
// the τ iterations is exactly one pass over the CSR — no separate StepCosts
// vector, no per-query allocation.

package markov

import (
	"context"
	"fmt"
)

// ChainScratch holds the reusable buffers of the truncated-sweep solvers.
// One scratch serves any number of sequential queries against chains of any
// size (buffers grow monotonically); it is not safe for concurrent use.
type ChainScratch struct {
	Mask     []bool    // absorbing-state membership
	Cur, Nxt []float64 // DP ping/pong buffers
	Enter    []float64 // per-state entry costs (Eq. 9), caller-filled
	// Arrive is the cost model's per-sweep enter[j] + Cur[j], filled by the
	// kernel so each edge gathers one value instead of two.
	Arrive []float64
}

// Resize re-slices every buffer to length n, growing the backing arrays
// when needed, and zeroes Mask, Cur and Nxt. Enter and Arrive are left
// uninitialized — the caller overwrites every element of the first, the
// kernel of the second.
func (s *ChainScratch) Resize(n int) {
	grow := func(b []float64) []float64 {
		if cap(b) < n {
			return make([]float64, n, 2*n)
		}
		return b[:n]
	}
	s.Cur = grow(s.Cur)
	s.Nxt = grow(s.Nxt)
	s.Enter = grow(s.Enter)
	s.Arrive = grow(s.Arrive)
	if cap(s.Mask) < n {
		s.Mask = make([]bool, n, 2*n)
	} else {
		s.Mask = s.Mask[:n]
	}
	for i := range s.Mask {
		s.Mask[i] = false
	}
	for i := range s.Cur {
		s.Cur[i] = 0
		s.Nxt[i] = 0
	}
}

// AbsorbingCostFused runs τ truncated dynamic-programming sweeps of the
// absorbing-cost recurrence (Eq. 8) entirely inside caller scratch.
//
// scr.Mask marks the absorbing set S. When enter is nil the step cost is
// the constant 1 and the result is the truncated absorbing time of
// AbsorbingTimeTruncated. When enter is non-nil, enter[j] is the cost of
// entering state j and the expected step cost Σ_j p_ij·enter[j] (StepCosts)
// is fused into the sweep via
//
//	AC_{t+1}(S|i) = Σ_j p_ij·(enter[j] + AC_t(S|j))
//
// which is algebraically identical to precomputing StepCosts but touches
// the CSR only once per sweep. Zero-degree transient states accumulate
// their own step cost per sweep (1 with nil enter, 0 otherwise), matching
// the allocating solvers.
//
// The returned slice aliases scr (either Cur or Nxt) and is valid until the
// scratch is reused. scr must have been Resize'd to c.Len(), with Mask set
// by the caller after the Resize.
//
//ltr:allocfree
func (c *Chain) AbsorbingCostFused(scr *ChainScratch, enter []float64, tau int) ([]float64, error) {
	return c.AbsorbingCostFusedCtx(nil, scr, enter, tau)
}

// AbsorbingCostFusedCtx is AbsorbingCostFused with cooperative
// cancellation: ctx is checked before each of the τ sweeps, so a
// cancelled or deadlined query aborts mid-walk instead of finishing all
// sweeps. A nil ctx skips the checks entirely — the option-free hot path
// pays nothing. The context error is returned unwrapped, so
// errors.Is(err, context.Canceled) holds for callers.
//
//ltr:allocfree
func (c *Chain) AbsorbingCostFusedCtx(ctx context.Context, scr *ChainScratch, enter []float64, tau int) ([]float64, error) {
	if len(scr.Mask) != c.n || len(scr.Cur) != c.n || len(scr.Nxt) != c.n || (enter != nil && len(scr.Arrive) != c.n) {
		return nil, fmt.Errorf("markov: scratch sized for %d states, chain has %d", len(scr.Mask), c.n)
	}
	if enter != nil && len(enter) != c.n {
		return nil, fmt.Errorf("markov: enter length %d, want %d", len(enter), c.n)
	}
	if tau < 0 {
		return nil, fmt.Errorf("markov: negative iteration count %d", tau)
	}
	any := false
	for _, a := range scr.Mask {
		if a {
			any = true
			break
		}
	}
	if !any {
		return nil, ErrNoAbsorbing
	}
	cur, nxt, mask, arrive := scr.Cur, scr.Nxt, scr.Mask, scr.Arrive
	for t := 0; t < tau; t++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				// Keep the scratch consistent (the swap below has not run
				// for this sweep) so the pooled buffers stay reusable.
				scr.Cur, scr.Nxt = cur, nxt
				return nil, err
			}
		}
		if enter != nil {
			// The same enter[j] + cur[j] every edge into j would add, once
			// per state instead of once per edge.
			for j, en := range enter {
				arrive[j] = en + cur[j]
			}
		}
		for i := 0; i < c.n; i++ {
			if mask[i] {
				nxt[i] = 0
				continue
			}
			d := c.degrees[i]
			if d == 0 {
				// Isolated transient state: never absorbed. Keep it at the
				// running maximum-plus-one (unit costs) or frozen (entry
				// costs contribute nothing without transitions).
				if enter == nil {
					nxt[i] = cur[i] + 1
				} else {
					nxt[i] = cur[i]
				}
				continue
			}
			cols, vals := c.adj.Row(i)
			if enter == nil {
				acc := 1.0
				for k, j := range cols {
					acc += vals[k] / d * cur[j]
				}
				nxt[i] = acc
			} else {
				acc := 0.0
				for k, j := range cols {
					acc += vals[k] * arrive[j]
				}
				nxt[i] = acc / d
			}
		}
		cur, nxt = nxt, cur
	}
	scr.Cur, scr.Nxt = cur, nxt
	return cur, nil
}

// StepCostsInto is StepCosts writing into caller-provided storage:
// out[i] = Σ_j p_ij·enterCost[j]. Used by the exact solve path of the query
// engine, where the linear-system solvers still need an explicit step-cost
// vector.
//
//ltr:allocfree
func (c *Chain) StepCostsInto(enterCost, out []float64) []float64 {
	if len(enterCost) != c.n || len(out) != c.n {
		panic(fmt.Sprintf("markov: StepCostsInto lengths %d/%d, want %d", len(enterCost), len(out), c.n))
	}
	for i := 0; i < c.n; i++ {
		d := c.degrees[i]
		if d == 0 {
			out[i] = 0
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
