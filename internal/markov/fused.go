// Fused, scratch-backed variants of the Algorithm 1 truncated solvers.
// These are the production query path: the per-destination entry costs of
// Eq. 9 are folded into the dynamic-programming sweep itself, so each of
// the τ iterations is at most one pass over the CSR — half a pass when the
// adjacency declares its two bipartite blocks — with no separate StepCosts
// vector and no per-query allocation.

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
	// Arrive is the cost model's per-sweep enter[j] + Cur[j] (0 for an
	// absorbing j), filled by the kernel so each edge gathers one value
	// instead of two.
	Arrive []float64
	// absorbed is the cost model's per-row sum of a_ij·enter[j] over the
	// absorbing columns j, filled by the kernel once per call.
	absorbed []float64
	// absorbing lists the absorbing states, ascending; kernel-owned.
	absorbing []int
}

// Resize re-slices every buffer to length n, growing the backing arrays
// when needed, and zeroes Mask, Cur and Nxt. Enter, Arrive and absorbed
// are left uninitialized — the caller overwrites every element of the
// first, the kernel of the other two.
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
	s.absorbed = grow(s.absorbed)
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
// Absorbing columns. AC_t(S|j) is 0 on S, so a row's terms over absorbing
// columns, a_ij·enter[j], are the same every sweep: the cost path adds
// them once per call, in ascending j, reading each absorbing row j instead
// of the rows they are added to — the adjacency is trusted symmetric, bit
// for bit (graph keeps a_ij and a_ji Float64bits-equal) — and each sweep
// starts a row from that sum and reads 0 for its absorbing columns. Every
// row is therefore summed absorbing columns first, ascending, then the
// others in column order, whatever the numbering: exactly the order of the
// full in-row sum when the absorbing states are the lowest ids, as in
// graph.SubgraphExtractor.Extract's seed prefix, so a chain numbered that
// way and the same chain numbered by graph.SubgraphExtractor.ExtractByID
// give Float64bits-equal results. Under unit costs an absorbing column
// adds 0 in place, which moves no bit.
//
// Block schedule. When the adjacency declares blocks (a, b) — rows [a,b)
// and [b,n) each free of internal edges, see sparse.CSR.DeclareBlocks —
// and every row below a is absorbing, the Jacobi recurrence is two
// independent chains: block [b,n) at sweep k reads block [a,b) at sweep
// k-1, which reads [b,n) at k-2, and the rows below a are 0 throughout.
// Sweep k of τ then advances only the block the last sweep's [b,n) rows
// descend from — [b,n) when τ-k is even, [a,b) when it is odd — in place
// in one buffer, visiting half the stored entries. Every product, addition
// and per-row column order is that of the full sweep, so on return the
// entries of [b,n) (a subgraph's items) are bit-identical to τ full sweeps
// and the entries of [a,b) (its users) are those of τ-1 full sweeps; rows
// below a are 0. Without a declaration, or with a transient row below a,
// every sweep advances all of [0,n) and every entry is the τ-sweep value.
//
// The returned slice aliases scr (either Cur or Nxt) and is valid until the
// scratch is reused. scr must have been Resize'd to c.Len(), with Mask set
// by the caller after the Resize.
func (c *Chain) AbsorbingCostFused(scr *ChainScratch, enter []float64, tau int) ([]float64, error) {
	return c.AbsorbingCostFusedCtx(nil, scr, enter, tau)
}

// AbsorbingCostFusedCtx is AbsorbingCostFused with cooperative
// cancellation: ctx is checked before each of the τ sweeps, so a
// cancelled or deadlined query aborts mid-walk instead of finishing all
// sweeps. A nil ctx skips the checks entirely — the option-free hot path
// pays nothing. The context error is returned unwrapped, so
// errors.Is(err, context.Canceled) holds for callers.
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
	cur, nxt, mask, arrive, absorbed := scr.Cur, scr.Nxt, scr.Mask, scr.Arrive, scr.absorbed
	a, b, blocks := c.adj.Blocks()
	for i := 0; blocks && i < a; i++ {
		blocks = mask[i]
	}
	if enter != nil {
		for i := range absorbed {
			absorbed[i] = 0
		}
		scr.absorbing = scr.absorbing[:0]
		for j, m := range mask {
			if !m {
				continue
			}
			scr.absorbing = append(scr.absorbing, j)
			cols, vals := c.adj.Row(j)
			for k, i := range cols {
				absorbed[i] += vals[k] * enter[j]
			}
		}
	}
	for t := 0; t < tau; t++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				// Keep the scratch consistent (the swap below has not run
				// for this sweep) so the pooled buffers stay reusable.
				scr.Cur, scr.Nxt = cur, nxt
				return nil, err
			}
		}
		// This sweep writes rows [lo,hi) of dst from rows [readLo,readHi)
		// (and, under the schedule, the constant rows below a) of cur.
		lo, hi, readLo, readHi, dst := 0, c.n, 0, c.n, nxt
		if blocks {
			// A block never reads itself, so it is advanced in place.
			dst = cur
			if (tau-1-t)%2 == 0 {
				lo, hi, readLo, readHi = b, c.n, a, b
			} else {
				lo, hi, readLo, readHi = a, b, b, c.n
			}
		}
		if enter != nil {
			// The same enter[j] + cur[j] every edge into j would add, once
			// per state instead of once per edge; absorbing columns are in
			// absorbed already.
			for j := readLo; j < readHi; j++ {
				arrive[j] = enter[j] + cur[j]
			}
			for _, j := range scr.absorbing {
				arrive[j] = 0
			}
		}
		for i := lo; i < hi; i++ {
			if mask[i] {
				dst[i] = 0
				continue
			}
			d := c.degrees[i]
			if d == 0 {
				// Isolated transient state: never absorbed. Under unit costs
				// its time is the number of sweeps so far — stated outright
				// rather than as cur[i] + 1, because the schedule visits a
				// row only every other sweep; entry costs contribute
				// nothing without transitions, so there it stays frozen.
				if enter == nil {
					dst[i] = float64(t + 1)
				} else {
					dst[i] = cur[i]
				}
				continue
			}
			cols, vals := c.adj.Row(i)
			if enter == nil {
				acc := 1.0
				for k, j := range cols {
					acc += vals[k] / d * cur[j]
				}
				dst[i] = acc
			} else {
				acc := absorbed[i]
				for k, j := range cols {
					acc += vals[k] * arrive[j]
				}
				dst[i] = acc / d
			}
		}
		if !blocks {
			cur, nxt = nxt, cur
		}
	}
	scr.Cur, scr.Nxt = cur, nxt
	return cur, nil
}
