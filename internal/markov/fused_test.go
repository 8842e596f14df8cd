package markov

import (
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
	if ch.Degree(iso) != 0 {
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
// the recurrence as written, acc += a_ij·(enter_j + AC_t(j)) then one
// division by d_i, bit for bit: the per-sweep Arrive vector hoists the
// inner addition out of the edge loop without changing a single operation
// or its order. One scratch serves chains of different sizes, so a stale
// Arrive would show.
func TestFusedCostGathersOncePerEdge(t *testing.T) {
	var scr ChainScratch
	for q, n := range []int{30, 12, 50} {
		ch := fusedTestChain(t, n, int64(20+q))
		rng := rand.New(rand.NewSource(int64(q)))
		enter := make([]float64, n)
		for i := range enter {
			enter[i] = 0.05 + rng.Float64()*2
		}
		const tau = 9
		cur, nxt := make([]float64, n), make([]float64, n)
		for s := 0; s < tau; s++ {
			for i := 0; i < n; i++ {
				d := ch.Degree(i)
				if i == 1 || i == 2 || d == 0 {
					nxt[i] = cur[i] // absorbing states stay 0, isolated ones frozen
					continue
				}
				cols, vals := ch.adj.Row(i)
				acc := 0.0
				for k, j := range cols {
					acc += vals[k] * (enter[j] + cur[j])
				}
				nxt[i] = acc / d
			}
			cur, nxt = nxt, cur
		}
		scr.Resize(n)
		scr.Mask[1], scr.Mask[2] = true, true
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
		degrees[i] = ch.Degree(i)
	}
	ch2, err := NewChainWithDegrees(ch.adj, degrees)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ch.Len(); i++ {
		if ch2.Degree(i) != ch.Degree(i) {
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
