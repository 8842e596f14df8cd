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
// size (buffers grow monotonically); it is not safe for concurrent use, and
// it must not be copied (it holds the atomic words a sweep shares with the
// helper goroutine).
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
	// split is the state the block schedule shares with the sweep helper
	// when it cuts its half-sweeps into row chunks (split.go).
	split sweepSplit
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
// Two cores. Under the block schedule a chain of splitMinEntries stored
// entries or more, with GOMAXPROCS > 1, shares each sweep's rows with one
// process-wide helper goroutine in chunks (split.go). Every row is still
// computed by one goroutine with the same operations in the same order, so
// the result is Float64bits-equal to the one-core sweep.
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
	mask, absorbed := scr.Mask, scr.absorbed
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
	if blocks {
		return c.blockSweeps(ctx, scr, enter, tau, a, b)
	}
	cur, nxt, arrive := scr.Cur, scr.Nxt, scr.Arrive
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
			// per state instead of once per edge; absorbing columns are in
			// absorbed already.
			for j := range arrive {
				arrive[j] = enter[j] + cur[j]
			}
			for _, j := range scr.absorbing {
				arrive[j] = 0
			}
		}
		c.sweepRows(scr, enter, cur, nxt, t, 0, c.n, false)
		cur, nxt = nxt, cur
	}
	scr.Cur, scr.Nxt = cur, nxt
	return cur, nil
}

// blockSweeps runs the block schedule: sweep t advances, in place in
// scr.Cur, the block sweepHalf names. Each row written also refreshes its
// Arrive entry for the next sweep, which reads exactly the rows this one
// wrote, so Arrive needs no pass of its own after the first. Chains of
// splitMin stored entries or more cut each sweep into row chunks shared
// with the helper goroutine (split.go); the rest, and every walk the
// helper is busy for, run here alone.
func (c *Chain) blockSweeps(ctx context.Context, scr *ChainScratch, enter []float64, tau, a, b int) ([]float64, error) {
	cur := scr.Cur
	rows := [2][2]int{{a, b}, {b, c.n}}
	if enter != nil && tau > 0 {
		// Sweep 0 reads the block it does not write; absorbing columns
		// (every row below a among them) read 0 throughout.
		read := rows[1-sweepHalf(0, tau)]
		for j := read[0]; j < read[1]; j++ {
			scr.Arrive[j] = enter[j] + cur[j]
		}
		for _, j := range scr.absorbing {
			scr.Arrive[j] = 0
		}
	}
	if tau > 0 && c.adj.NNZ() >= splitMin {
		if done, err := c.splitSweeps(ctx, scr, enter, tau, rows); done {
			if err != nil {
				return nil, err
			}
			return cur, nil
		}
	}
	for t := 0; t < tau; t++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		r := rows[sweepHalf(t, tau)]
		c.sweepRows(scr, enter, cur, cur, t, r[0], r[1], true)
	}
	return cur, nil
}

// sweepHalf is the block sweep t of τ advances under the block schedule:
// 1 for [b,n) when τ-1-t is even, 0 for [a,b) when it is odd. A block
// never reads itself, so it is advanced in place.
func sweepHalf(t, tau int) int {
	return 1 - (tau-1-t)%2
}

// sweepRows writes rows [lo,hi) of sweep t into dst, reading cur (and,
// under the cost model, Arrive and absorbed). Under the block schedule dst
// is cur and refresh is set: each row written also stores its own
// enter[i] + dst[i] (0 when absorbing) in Arrive, the value the next sweep
// gathers. Rows touch nothing but their own entries, so disjoint row
// ranges may run at once.
func (c *Chain) sweepRows(scr *ChainScratch, enter, cur, dst []float64, t, lo, hi int, refresh bool) {
	mask, arrive, absorbed := scr.Mask, scr.Arrive, scr.absorbed
	refresh = refresh && enter != nil
	for i := lo; i < hi; i++ {
		if mask[i] {
			dst[i] = 0
			if refresh {
				arrive[i] = 0
			}
			continue
		}
		d := c.degrees[i]
		if d == 0 {
			// Isolated transient state: never absorbed. Under unit costs
			// its time is the number of sweeps so far — stated outright
			// rather than as cur[i] + 1, because the schedule visits a row
			// only every other sweep; entry costs contribute nothing
			// without transitions, so there it stays frozen.
			if enter == nil {
				dst[i] = float64(t + 1)
			} else {
				dst[i] = cur[i]
			}
		} else if cols, vals := c.adj.Row(i); enter == nil {
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
		if refresh {
			arrive[i] = enter[i] + dst[i]
		}
	}
}
