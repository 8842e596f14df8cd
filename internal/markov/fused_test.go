package markov

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"longtailrec/internal/sparse"
)

// fusedTestChain builds a random symmetric adjacency with some isolated
// states, plus its Chain.
func fusedTestChain(t *testing.T, n int, seed int64) *Chain {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	for e := 0; e < 3*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || i == n-1 || j == n-1 { // keep state n-1 isolated
			continue
		}
		w := float64(1 + rng.Intn(5))
		coo.Add(i, j, w)
		coo.Add(j, i, w)
	}
	ch, err := NewChain(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestFusedMatchesTruncatedTime checks the enter == nil fused kernel is
// bit-identical to AbsorbingTimeTruncated (same summation order).
func TestFusedMatchesTruncatedTime(t *testing.T) {
	ch := fusedTestChain(t, 40, 1)
	absorbing := []int{0, 7}
	want, err := ch.AbsorbingTimeTruncated(absorbing, 15)
	if err != nil {
		t.Fatal(err)
	}
	var scr ChainScratch
	scr.Resize(ch.Len())
	for _, s := range absorbing {
		scr.Mask[s] = true
	}
	got, err := ch.AbsorbingCostFused(&scr, nil, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("state %d: fused %v, truncated %v", i, got[i], want[i])
		}
	}
}

// TestFusedMatchesStepCostPipeline checks the fused entry-cost sweep
// against the two-pass StepCosts + AbsorbingCostTruncated pipeline. The
// summation order differs, so agreement is to floating-point tolerance.
func TestFusedMatchesStepCostPipeline(t *testing.T) {
	ch := fusedTestChain(t, 35, 2)
	rng := rand.New(rand.NewSource(3))
	enter := make([]float64, ch.Len())
	for i := range enter {
		enter[i] = 0.05 + rng.Float64()*2
	}
	absorbing := []int{3, 11, 19}
	step := ch.StepCosts(enter)
	want, err := ch.AbsorbingCostTruncated(absorbing, step, 15)
	if err != nil {
		t.Fatal(err)
	}
	var scr ChainScratch
	scr.Resize(ch.Len())
	for _, s := range absorbing {
		scr.Mask[s] = true
	}
	got, err := ch.AbsorbingCostFused(&scr, enter, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		diff := math.Abs(want[i] - got[i])
		scale := math.Max(1, math.Abs(want[i]))
		if diff/scale > 1e-9 {
			t.Fatalf("state %d: fused %v, pipeline %v", i, got[i], want[i])
		}
	}
	// Zero-degree transient states must stay frozen under entry costs.
	iso := ch.Len() - 1
	if ch.degrees[iso] != 0 {
		t.Fatal("expected state n-1 isolated")
	}
	if got[iso] != 0 {
		t.Fatalf("isolated state drifted to %v under entry costs", got[iso])
	}
}

// TestFusedScratchReuse runs queries of different sizes through one
// scratch, ensuring Resize fully re-initializes state.
func TestFusedScratchReuse(t *testing.T) {
	var scr ChainScratch
	for q, n := range []int{30, 12, 50} {
		ch := fusedTestChain(t, n, int64(10+q))
		absorbing := []int{1, 2}
		want, err := ch.AbsorbingTimeTruncated(absorbing, 10)
		if err != nil {
			t.Fatal(err)
		}
		scr.Resize(ch.Len())
		for _, s := range absorbing {
			scr.Mask[s] = true
		}
		got, err := ch.AbsorbingCostFused(&scr, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d state %d: %v vs %v", q, i, got[i], want[i])
			}
		}
	}
}

// TestFusedCostGathersOncePerEdge pins the cost kernel's arithmetic to
// the recurrence as written, bit for bit: each row sums a_ij·enter_j over
// its absorbing columns j first, ascending, then a_ij·(enter_j + AC_t(j))
// over the others in column order, then divides once by d_i. The per-sweep
// Arrive vector hoists the inner addition out of the edge loop, and the
// per-call absorbed sums hoist the absorbing terms out of the sweeps,
// without changing a single operation or its order. The absorbing states
// sit inside the numbering (rows reach columns on both sides of them), and
// one scratch serves chains of different sizes, so a stale Arrive or
// absorbed would show.
func TestFusedCostGathersOncePerEdge(t *testing.T) {
	var scr ChainScratch
	for q, n := range []int{30, 12, 50} {
		ch := fusedTestChain(t, n, int64(20+q))
		rng := rand.New(rand.NewSource(int64(q)))
		enter := make([]float64, n)
		for i := range enter {
			enter[i] = 0.05 + rng.Float64()*2
		}
		absorbing := func(j int) bool { return j == n/3 || j == n/2 }
		const tau = 9
		cur, nxt := make([]float64, n), make([]float64, n)
		for s := 0; s < tau; s++ {
			for i := 0; i < n; i++ {
				d := ch.degrees[i]
				if absorbing(i) || d == 0 {
					nxt[i] = cur[i] // absorbing states stay 0, isolated ones frozen
					continue
				}
				cols, vals := ch.adj.Row(i)
				acc := 0.0
				for k, j := range cols {
					if absorbing(j) {
						acc += vals[k] * enter[j]
					}
				}
				for k, j := range cols {
					if !absorbing(j) {
						acc += vals[k] * (enter[j] + cur[j])
					}
				}
				nxt[i] = acc / d
			}
			cur, nxt = nxt, cur
		}
		scr.Resize(n)
		scr.Mask[n/3], scr.Mask[n/2] = true, true
		got, err := ch.AbsorbingCostFused(&scr, enter, tau)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cur {
			if cur[i] != got[i] {
				t.Fatalf("query %d state %d: kernel %v, recurrence %v", q, i, got[i], cur[i])
			}
		}
	}
}

// blockedTestChains builds one random bipartite graph in the numbering
// graph.SubgraphExtractor hands out — seeds [0,a) of the given types, then
// users [a,b), then items [b,n), every edge joining a user to an item — as
// two chains over equal storage: one whose adjacency declares the blocks
// and one whose adjacency does not. Item n-1 is left without edges.
func blockedTestChains(t *testing.T, rng *rand.Rand, seedIsItem []bool, users, items int) (plain, blocked *Chain) {
	t.Helper()
	a := len(seedIsItem)
	b, n := a+users, a+users+items
	var userSide, itemSide []int
	for l, isItem := range seedIsItem {
		if isItem {
			itemSide = append(itemSide, l)
		} else {
			userSide = append(userSide, l)
		}
	}
	for l := a; l < b; l++ {
		userSide = append(userSide, l)
	}
	for l := b; l < n-1; l++ {
		itemSide = append(itemSide, l)
	}
	coo := sparse.NewCOO(n, n)
	for e := 0; e < 4*n; e++ {
		u, i := userSide[rng.Intn(len(userSide))], itemSide[rng.Intn(len(itemSide))]
		w := 0.1 + rng.Float64()*4.9
		coo.Add(u, i, w)
		coo.Add(i, u, w)
	}
	plain, err := NewChain(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	blocked, err = NewChain(coo.ToCSR().DeclareBlocks(a, b))
	if err != nil {
		t.Fatal(err)
	}
	return plain, blocked
}

// countdownCtx reports context.Canceled from its n-th Err call on.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestFusedBlockScheduleBitwise pins the block schedule to the full sweep
// it replaces, bit for bit. On an adjacency that declares blocks (a, b)
// with every row below a absorbing, the entries of [b,n) must equal those
// of τ full sweeps over the same matrix without the declaration, and the
// entries of [a,b) those of τ-1 full sweeps (the documented contract); with
// a transient row below a the kernel must fall back to the full sweep on
// every entry. Both kernels, both parities of τ, the seed shapes of AT, HT
// and a mixed set, an isolated transient item and absorbing rows inside
// both blocks; one scratch throughout, so a stale Arrive would show.
func TestFusedBlockScheduleBitwise(t *testing.T) {
	const users, items = 14, 19
	shapes := []struct {
		name       string
		seedIsItem []bool
	}{
		{"item seeds (AT)", []bool{true, true, true}},
		{"one user seed (HT)", []bool{false}},
		{"mixed seeds", []bool{true, false, true, false}},
	}
	var scr ChainScratch
	for si, shape := range shapes {
		rng := rand.New(rand.NewSource(int64(40 + si)))
		plain, blocked := blockedTestChains(t, rng, shape.seedIsItem, users, items)
		a, n := len(shape.seedIsItem), plain.Len()
		b := a + users
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 0.05 + rng.Float64()*2
		}
		// run masks the seeds except those listed in transient, plus one
		// more row inside each block, and returns a copy of the result.
		run := func(ctx context.Context, ch *Chain, enter []float64, tau int, transient ...int) ([]float64, error) {
			scr.Resize(n)
			for l := 0; l < a; l++ {
				scr.Mask[l] = true
			}
			for _, l := range transient {
				scr.Mask[l] = false
			}
			scr.Mask[a+1], scr.Mask[b+2] = true, true
			out, err := ch.AbsorbingCostFusedCtx(ctx, &scr, enter, tau)
			return append([]float64(nil), out...), err
		}
		sameBits := func(what string, got, want []float64, lo, hi int) {
			t.Helper()
			for l := lo; l < hi; l++ {
				if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
					t.Fatalf("%s: entry %d = %v (%#x), want %v (%#x)", what, l, got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
				}
			}
		}
		for _, enter := range [][]float64{nil, costs} {
			for _, tau := range []int{0, 1, 2, 3, 15, 16} {
				what := fmt.Sprintf("%s, costed %v, tau %d", shape.name, enter != nil, tau)
				full, err := run(nil, plain, enter, tau)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				behind := make([]float64, n) // sweep τ-1; all zero before the first
				if tau > 0 {
					if behind, err = run(nil, plain, enter, tau-1); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				got, err := run(nil, blocked, enter, tau)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameBits(what+", rows below a", got, full, 0, a)
				sameBits(what+", block [b,n) vs tau full sweeps", got, full, b, n)
				sameBits(what+", block [a,b) vs tau-1 full sweeps", got, behind, a, b)
				if want := float64(tau); enter == nil && got[n-1] != want {
					t.Fatalf("%s: isolated transient item at %v, want %v", what, got[n-1], want)
				}
				if tau == 15 {
					// The comparison above only bites if the schedule ran:
					// after τ full sweeps block [a,b) is NOT at sweep τ-1.
					differs := false
					for l := a; l < b; l++ {
						differs = differs || got[l] != full[l]
					}
					if !differs {
						t.Fatalf("%s: block [a,b) equals the full sweep, the schedule did not run", what)
					}
				}

				// A transient row below a is read by both blocks and moves
				// every sweep: no schedule, the full sweep on every entry.
				full, err = run(nil, plain, enter, tau, 0)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got, err = run(nil, blocked, enter, tau, 0)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameBits(what+", transient row below a", got, full, 0, n)
			}

			// Cancelled between two sweeps of the schedule: the context
			// error comes back bare and the scratch is whole — two distinct
			// buffers — and serves the next query.
			what := fmt.Sprintf("%s, costed %v, cancelled", shape.name, enter != nil)
			if _, err := run(&countdownCtx{Context: context.Background(), n: 8}, blocked, enter, 15); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", what, err)
			}
			if len(scr.Cur) != n || len(scr.Nxt) != n || &scr.Cur[0] == &scr.Nxt[0] {
				t.Fatalf("%s: scratch left with Cur/Nxt of %d/%d entries, aliased %v", what, len(scr.Cur), len(scr.Nxt), &scr.Cur[0] == &scr.Nxt[0])
			}
			full, err := run(nil, plain, enter, 15)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got, err := run(nil, blocked, enter, 15)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameBits(what+", next query", got, full, b, n)
		}
	}
}

// TestFusedValidation exercises the error paths.
func TestFusedValidation(t *testing.T) {
	ch := fusedTestChain(t, 10, 5)
	var scr ChainScratch
	scr.Resize(5) // wrong size
	if _, err := ch.AbsorbingCostFused(&scr, nil, 3); err == nil {
		t.Fatal("mis-sized scratch accepted")
	}
	scr.Resize(10)
	if _, err := ch.AbsorbingCostFused(&scr, nil, 3); err != ErrNoAbsorbing {
		t.Fatalf("empty mask: err = %v, want ErrNoAbsorbing", err)
	}
	scr.Mask[0] = true
	if _, err := ch.AbsorbingCostFused(&scr, make([]float64, 4), 3); err == nil {
		t.Fatal("mis-sized enter accepted")
	}
	if _, err := ch.AbsorbingCostFused(&scr, nil, -1); err == nil {
		t.Fatal("negative tau accepted")
	}
}

// TestNewChainWithDegreesAndReset checks the degree-reusing constructors.
func TestNewChainWithDegreesAndReset(t *testing.T) {
	ch := fusedTestChain(t, 20, 6)
	degrees := make([]float64, ch.Len())
	for i := range degrees {
		degrees[i] = ch.degrees[i]
	}
	ch2, err := NewChainWithDegrees(ch.adj, degrees)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ch.Len(); i++ {
		if ch2.degrees[i] != ch.degrees[i] {
			t.Fatalf("degree %d mismatch", i)
		}
	}
	if err := ch2.Reset(ch.adj, degrees[:5]); err == nil {
		t.Fatal("short degree vector accepted")
	}
	rect := sparse.NewCSRFromDense([][]float64{{1, 0, 0}, {0, 1, 0}})
	if _, err := NewChainWithDegrees(rect, []float64{1, 1}); err == nil {
		t.Fatal("rectangular adjacency accepted")
	}
}
