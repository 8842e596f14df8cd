package markov

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"longtailrec/internal/graph"
	"longtailrec/internal/markov/markovtest"
)

// figure2Graph reproduces the exact rating table of Figure 2 in the paper.
func figure2Graph(t testing.TB) *graph.Bipartite {
	t.Helper()
	ratings := []graph.Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 0, Item: 1, Weight: 3}, {User: 0, Item: 4, Weight: 3}, {User: 0, Item: 5, Weight: 5},
		{User: 1, Item: 0, Weight: 5}, {User: 1, Item: 1, Weight: 4}, {User: 1, Item: 2, Weight: 5}, {User: 1, Item: 4, Weight: 4}, {User: 1, Item: 5, Weight: 5},
		{User: 2, Item: 0, Weight: 4}, {User: 2, Item: 1, Weight: 5}, {User: 2, Item: 2, Weight: 4},
		{User: 3, Item: 2, Weight: 5}, {User: 3, Item: 3, Weight: 5},
		{User: 4, Item: 1, Weight: 4}, {User: 4, Item: 2, Weight: 5},
	}
	g, err := graph.FromRatings(5, 6, ratings)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chainOf(t testing.TB, g *graph.Bipartite) *Chain {
	t.Helper()
	ch, err := NewChain(g.Adjacency())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func randomChain(r *rand.Rand, nu, ni int) (*graph.Bipartite, *Chain) {
	b := graph.NewBuilder(nu, ni)
	for u := 0; u < nu; u++ {
		k := 1 + r.Intn(ni)
		for _, i := range r.Perm(ni)[:k] {
			_ = b.AddRating(u, i, float64(1+r.Intn(5)))
		}
	}
	g := b.Build()
	ch, err := NewChain(g.Adjacency())
	if err != nil {
		panic(err)
	}
	return g, ch
}

// TestFigure2WorkedExample validates the paper's §3.3 worked example.
// Paper values: H(U5|M4)=17.7, H(U5|M1)=19.6, H(U5|M5)=20.2, H(U5|M6)=20.3.
// The exact solve on the Figure 2 rating table gives the identical ranking
// with every value exactly 1.040× the paper's (a uniform edge-mass
// difference); we assert the ranking plus the constant-ratio agreement.
func TestFigure2WorkedExample(t *testing.T) {
	g := figure2Graph(t)
	ht, err := markovtest.HittingTime(g.Adjacency(), g.UserNode(4))
	if err != nil {
		t.Fatal(err)
	}
	m1 := ht[g.ItemNode(0)]
	m4 := ht[g.ItemNode(3)]
	m5 := ht[g.ItemNode(4)]
	m6 := ht[g.ItemNode(5)]
	if !(m4 < m1 && m1 < m5 && m5 < m6) {
		t.Fatalf("ranking M4<M1<M5<M6 violated: %v %v %v %v", m4, m1, m5, m6)
	}
	// Regression pin for the exact solve.
	wantExact := map[string]float64{"m1": 20.3894, "m4": 18.3993, "m5": 21.0235, "m6": 21.1171}
	for name, got := range map[string]float64{"m1": m1, "m4": m4, "m5": m5, "m6": m6} {
		if math.Abs(got-wantExact[name]) > 5e-4 {
			t.Fatalf("%s = %v, want %v", name, got, wantExact[name])
		}
	}
	// Constant-ratio agreement with the paper's printed values.
	paper := []float64{17.7, 19.6, 20.2, 20.3}
	ours := []float64{m4, m1, m5, m6}
	base := ours[0] / paper[0]
	for k := 1; k < 4; k++ {
		ratio := ours[k] / paper[k]
		if math.Abs(ratio-base)/base > 0.01 {
			t.Fatalf("ratio to paper value drifts: %v vs %v", ratio, base)
		}
	}
}

func TestFigure2NicheBeatsPopular(t *testing.T) {
	// The paper's point: HT recommends the niche M4 over the locally
	// popular M1 for U5, while a popularity ranking would pick M1.
	g := figure2Graph(t)
	ht, err := markovtest.HittingTime(g.Adjacency(), g.UserNode(4))
	if err != nil {
		t.Fatal(err)
	}
	pop := g.ItemPopularity()
	if pop[0] <= pop[3] {
		t.Fatal("test premise broken: M1 should be more popular than M4")
	}
	if ht[g.ItemNode(3)] >= ht[g.ItemNode(0)] {
		t.Fatal("hitting time failed to prefer the niche item M4")
	}
}

func TestNewChainRejectsNonSquare(t *testing.T) {
	g := figure2Graph(t)
	sub := g.Adjacency().SubmatrixRows([]int{0, 1})
	if _, err := NewChain(sub); err == nil {
		t.Fatal("non-square adjacency accepted")
	}
}

// TestTransitionProbRows checks the oracle's p_ij (Eq. 1), which the
// first-step tests below read, is a stochastic matrix.
func TestTransitionProbRows(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	for i := 0; i < ch.Len(); i++ {
		sum := 0.0
		for j := 0; j < ch.Len(); j++ {
			p := markovtest.TransitionProb(ch.adj, i, j)
			if p < 0 || p > 1 {
				t.Fatalf("p(%d,%d) = %v out of [0,1]", i, j, p)
			}
			sum += p
		}
		if ch.degrees[i] > 0 && math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

// stationary returns the degree-proportional stationary distribution
// π_i = d_i / Σ_j d_j (Eq. 2), which TestKemenyConstant weights by.
func stationary(c *Chain) []float64 {
	pi := make([]float64, c.n)
	total := 0.0
	for _, d := range c.degrees {
		total += d
	}
	for i, d := range c.degrees {
		pi[i] = d / total
	}
	return pi
}

// stepDistribution advances a probability distribution one step of the
// walk, out = Pᵀ·in; a zero-degree state keeps its mass in place.
func stepDistribution(c *Chain, in, out []float64) {
	clear(out)
	for i, mass := range in {
		if c.degrees[i] == 0 {
			out[i] += mass
			continue
		}
		cols, vals := c.adj.Row(i)
		for k, j := range cols {
			out[j] += mass * vals[k] / c.degrees[i]
		}
	}
}

// TestStationaryMatchesPowerIteration checks Eq. 2 against the lazy walk
// (I+P)/2, which has the same stationary distribution and converges on
// bipartite (periodic) graphs too.
func TestStationaryMatchesPowerIteration(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	closed := stationary(ch)
	cur, nxt := make([]float64, ch.Len()), make([]float64, ch.Len())
	for i := range cur {
		cur[i] = 1 / float64(ch.Len())
	}
	for it := 0; it < 20000; it++ {
		stepDistribution(ch, cur, nxt)
		diff := 0.0
		for i := range nxt {
			nxt[i] = 0.5*cur[i] + 0.5*nxt[i]
			diff += math.Abs(nxt[i] - cur[i])
		}
		cur, nxt = nxt, cur
		if diff < 1e-14 {
			break
		}
	}
	for i := range closed {
		if math.Abs(closed[i]-cur[i]) > 1e-8 {
			t.Fatalf("π[%d]: closed %v vs power %v", i, closed[i], cur[i])
		}
	}
}

func TestStepDistributionPreservesMass(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	in := make([]float64, ch.Len())
	in[3] = 0.5
	in[7] = 0.5
	out := make([]float64, ch.Len())
	stepDistribution(ch, in, out)
	sum := 0.0
	for _, p := range out {
		if p < 0 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mass after step = %v", sum)
	}
}

func TestAbsorbingTimeEqualsHittingTimeForSingleton(t *testing.T) {
	// Definition 3: AT(S|i) with S={j} is exactly H(j|i).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g, ch := randomChain(rng, 3+rng.Intn(5), 3+rng.Intn(5))
		target := g.UserNode(rng.Intn(g.NumUsers()))
		at, err := markovtest.AbsorbingTime(ch.adj, []int{target})
		if err != nil {
			t.Fatal(err)
		}
		ht, err := markovtest.HittingTime(ch.adj, target)
		if err != nil {
			t.Fatal(err)
		}
		for i := range at {
			if at[i] != ht[i] && !(math.IsInf(at[i], 1) && math.IsInf(ht[i], 1)) {
				t.Fatalf("trial %d: AT %v != HT %v at state %d", trial, at[i], ht[i], i)
			}
		}
	}
}

func TestAbsorbingStatesAreZero(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	abs := []int{g.ItemNode(1), g.ItemNode(2)}
	at, err := markovtest.AbsorbingTime(ch.adj, abs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range abs {
		if at[s] != 0 {
			t.Fatalf("absorbing state %d has AT %v", s, at[s])
		}
	}
	for i, v := range at {
		if i != abs[0] && i != abs[1] && v <= 0 {
			t.Fatalf("transient state %d has non-positive AT %v", i, v)
		}
	}
}

func TestAbsorbingTimeFirstStepEquation(t *testing.T) {
	// Exact AT must satisfy Eq. 6: AT(i) = 1 + Σ_j p_ij AT(j).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g, ch := randomChain(rng, 3+rng.Intn(6), 3+rng.Intn(6))
		abs := []int{g.ItemNode(rng.Intn(g.NumItems()))}
		at, err := markovtest.AbsorbingTime(ch.adj, abs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ch.Len(); i++ {
			if i == abs[0] || math.IsInf(at[i], 1) {
				continue
			}
			want := 1.0
			for j := 0; j < ch.Len(); j++ {
				p := markovtest.TransitionProb(ch.adj, i, j)
				if p > 0 && !math.IsInf(at[j], 1) {
					want += p * at[j]
				}
			}
			if math.Abs(at[i]-want) > 1e-8 {
				t.Fatalf("trial %d: Eq.6 violated at %d: %v vs %v", trial, i, at[i], want)
			}
		}
	}
}

func TestUnreachableStatesAreInfinite(t *testing.T) {
	// Two disconnected components: absorbing in one, the other must be +Inf.
	b := graph.NewBuilder(2, 2)
	_ = b.AddRating(0, 0, 5)
	_ = b.AddRating(1, 1, 5)
	g := b.Build()
	ch := chainOf(t, g)
	at, err := markovtest.AbsorbingTime(ch.adj, []int{g.ItemNode(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(at[g.UserNode(1)], 1) || !math.IsInf(at[g.ItemNode(1)], 1) {
		t.Fatalf("disconnected states not infinite: %v", at)
	}
	if math.IsInf(at[g.UserNode(0)], 1) {
		t.Fatal("reachable state is infinite")
	}
}

func TestTruncatedConvergesToExact(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	abs := []int{g.ItemNode(1), g.ItemNode(2)}
	exact, err := markovtest.AbsorbingTime(ch.adj, abs)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := ch.AbsorbingTimeTruncated(abs, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-trunc[i]) > 1e-6 {
			t.Fatalf("state %d: exact %v vs truncated %v", i, exact[i], trunc[i])
		}
	}
}

func TestTruncatedMonotoneAndBounded(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	abs := []int{g.UserNode(4)}
	exact, err := markovtest.AbsorbingTime(ch.adj, abs)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]float64, ch.Len())
	for tau := 1; tau <= 60; tau++ {
		cur, err := ch.AbsorbingTimeTruncated(abs, tau)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cur {
			if cur[i]+1e-12 < prev[i] {
				t.Fatalf("tau=%d: truncated AT decreased at state %d", tau, i)
			}
			if !math.IsInf(exact[i], 1) && cur[i] > exact[i]+1e-9 {
				t.Fatalf("tau=%d: truncated AT %v exceeds exact %v at %d", tau, cur[i], exact[i], i)
			}
		}
		copy(prev, cur)
	}
}

func TestTruncatedRankingStableByTau15(t *testing.T) {
	// The paper claims τ=15 already yields the same top-k ranking as the
	// exact solution on small graphs.
	g := figure2Graph(t)
	ch := chainOf(t, g)
	abs := []int{g.ItemNode(1), g.ItemNode(2)} // S_{U5}
	exact, err := markovtest.AbsorbingTime(ch.adj, abs)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := ch.AbsorbingTimeTruncated(abs, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the pairwise order of the candidate items (not in S).
	cands := []int{g.ItemNode(0), g.ItemNode(3), g.ItemNode(4), g.ItemNode(5)}
	for a := 0; a < len(cands); a++ {
		for b := a + 1; b < len(cands); b++ {
			i, j := cands[a], cands[b]
			if (exact[i] < exact[j]) != (trunc[i] < trunc[j]) {
				t.Fatalf("τ=15 ranking disagrees with exact on (%d,%d)", i, j)
			}
		}
	}
}

func TestAbsorbingCostReducesToTime(t *testing.T) {
	// With unit step costs, AC must equal AT (Eq. 8 note).
	g := figure2Graph(t)
	ch := chainOf(t, g)
	abs := []int{g.UserNode(0)}
	ones := make([]float64, ch.Len())
	for i := range ones {
		ones[i] = 1
	}
	at, err := markovtest.AbsorbingTime(ch.adj, abs)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := markovtest.AbsorbingCost(ch.adj, abs, ones)
	if err != nil {
		t.Fatal(err)
	}
	for i := range at {
		if at[i] != ac[i] {
			t.Fatalf("AC != AT at %d: %v vs %v", i, ac[i], at[i])
		}
	}
}

func TestAbsorbingCostScalesLinearly(t *testing.T) {
	// Doubling every step cost must double the absorbing cost.
	g := figure2Graph(t)
	ch := chainOf(t, g)
	abs := []int{g.ItemNode(0)}
	cost1 := make([]float64, ch.Len())
	cost2 := make([]float64, ch.Len())
	for i := range cost1 {
		cost1[i] = 0.5 + float64(i%3)
		cost2[i] = 2 * cost1[i]
	}
	ac1, err := markovtest.AbsorbingCost(ch.adj, abs, cost1)
	if err != nil {
		t.Fatal(err)
	}
	ac2, err := markovtest.AbsorbingCost(ch.adj, abs, cost2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ac1 {
		if math.IsInf(ac1[i], 1) {
			continue
		}
		if math.Abs(ac2[i]-2*ac1[i]) > 1e-8 {
			t.Fatalf("linearity violated at %d: %v vs 2*%v", i, ac2[i], ac1[i])
		}
	}
}

func TestStepCosts(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	enter := make([]float64, ch.Len())
	for i := range enter {
		enter[i] = float64(i + 1)
	}
	sc := ch.StepCosts(enter)
	for i := 0; i < ch.Len(); i++ {
		want := 0.0
		for j := 0; j < ch.Len(); j++ {
			want += markovtest.TransitionProb(ch.adj, i, j) * enter[j]
		}
		if math.Abs(sc[i]-want) > 1e-12 {
			t.Fatalf("StepCosts[%d] = %v, want %v", i, sc[i], want)
		}
	}
}

func TestStepCostsUniformEnterIsUnit(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	enter := make([]float64, ch.Len())
	for i := range enter {
		enter[i] = 1
	}
	for i, sc := range ch.StepCosts(enter) {
		if ch.degrees[i] > 0 && math.Abs(sc-1) > 1e-12 {
			t.Fatalf("uniform enter cost gave step cost %v at %d", sc, i)
		}
	}
}

func TestKemenyConstant(t *testing.T) {
	// Random-target lemma: Σ_j π_j·H(j|i) is the same for every start i.
	// This is a strong end-to-end check of the exact hitting-time solver.
	g := figure2Graph(t)
	ch := chainOf(t, g)
	pi := stationary(ch)
	n := ch.Len()
	// H[j][i] = hitting time to j from i.
	kemeny := make([]float64, n)
	for j := 0; j < n; j++ {
		ht, err := markovtest.HittingTime(ch.adj, j)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			kemeny[i] += pi[j] * ht[i]
		}
	}
	for i := 1; i < n; i++ {
		if math.Abs(kemeny[i]-kemeny[0]) > 1e-6 {
			t.Fatalf("Kemeny constant varies: K(%d)=%v vs K(0)=%v", i, kemeny[i], kemeny[0])
		}
	}
}

func TestCommuteTimeSymmetry(t *testing.T) {
	// C(i,j) = H(i|j) + H(j|i) must be symmetric on a reversible chain.
	rng := rand.New(rand.NewSource(4))
	g, ch := randomChain(rng, 4, 5)
	n := ch.Len()
	H := make([][]float64, n)
	for j := 0; j < n; j++ {
		ht, err := markovtest.HittingTime(ch.adj, j)
		if err != nil {
			t.Fatal(err)
		}
		H[j] = ht
	}
	_ = g
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cij := H[j][i] + H[i][j]
			cji := H[i][j] + H[j][i]
			if math.IsInf(cij, 1) {
				continue
			}
			if math.Abs(cij-cji) > 1e-9 {
				t.Fatalf("commute time asymmetric (%d,%d)", i, j)
			}
		}
	}
}

func TestErrorPaths(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	if _, err := ch.AbsorbingTimeTruncated(nil, 5); !errors.Is(err, ErrNoAbsorbing) {
		t.Fatalf("empty absorbing set: %v", err)
	}
	if _, err := ch.AbsorbingTimeTruncated([]int{-1}, 5); err == nil {
		t.Fatal("negative absorbing state accepted")
	}
	if _, err := ch.AbsorbingTimeTruncated([]int{99}, 5); err == nil {
		t.Fatal("out-of-range absorbing state accepted")
	}
	if _, err := ch.AbsorbingTimeTruncated([]int{0}, -1); err == nil {
		t.Fatal("negative tau accepted")
	}
	if _, err := markovtest.AbsorbingCost(ch.adj, []int{0}, []float64{1}); err == nil {
		t.Fatal("short stepCost accepted (oracle)")
	}
	if _, err := ch.AbsorbingCostTruncated([]int{0}, []float64{1}, 5); err == nil {
		t.Fatal("short stepCost accepted (truncated)")
	}
}

func TestQuickTruncatedNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ch := randomChain(r, 2+r.Intn(6), 2+r.Intn(6))
		abs := []int{g.ItemNode(r.Intn(g.NumItems()))}
		tau := r.Intn(30)
		at, err := ch.AbsorbingTimeTruncated(abs, tau)
		if err != nil {
			return false
		}
		for _, v := range at {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return at[abs[0]] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExactAtLeastOne(t *testing.T) {
	// Any transient state adjacent to anything needs at least one step.
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ch := randomChain(r, 2+r.Intn(6), 2+r.Intn(6))
		abs := []int{g.UserNode(r.Intn(g.NumUsers()))}
		at, err := markovtest.AbsorbingTime(ch.adj, abs)
		if err != nil {
			return false
		}
		for i, v := range at {
			if i == abs[0] {
				continue
			}
			if !math.IsInf(v, 1) && v < 1-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
