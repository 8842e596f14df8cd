package markov

import (
	"math"
	"math/rand"
	"testing"

	"longtailrec/internal/graph"
	"longtailrec/internal/markov/markovtest"
	"longtailrec/internal/sparse"
)

func TestAbsorptionProbabilitySumsToOne(t *testing.T) {
	// Probabilities over all absorbing targets must sum to 1 for every
	// state that can reach the absorbing set.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		g, ch := randomChain(rng, 3+rng.Intn(5), 3+rng.Intn(5))
		absorbing := []int{g.ItemNode(0), g.ItemNode(g.NumItems() - 1)}
		if absorbing[0] == absorbing[1] {
			continue
		}
		total := make([]float64, ch.Len())
		for _, target := range absorbing {
			b, err := ch.AbsorptionProbability(absorbing, target)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range b {
				if p < -1e-12 || p > 1+1e-12 {
					t.Fatalf("trial %d: probability %v at %d", trial, p, i)
				}
				total[i] += p
			}
		}
		// Determine reachability via absorbing time.
		at, err := markovtest.AbsorbingTime(ch.adj, absorbing)
		if err != nil {
			t.Fatal(err)
		}
		for i, tt := range total {
			if math.IsInf(at[i], 1) {
				if tt > 1e-9 {
					t.Fatalf("trial %d: unreachable state %d has absorption mass %v", trial, i, tt)
				}
				continue
			}
			if math.Abs(tt-1) > 1e-8 {
				t.Fatalf("trial %d: state %d absorption mass %v", trial, i, tt)
			}
		}
	}
}

func TestAbsorptionProbabilitySingleTarget(t *testing.T) {
	// With a single absorbing state, every reachable state is absorbed
	// there with probability 1.
	g := figure2Graph(t)
	ch := chainOf(t, g)
	q := g.UserNode(4)
	b, err := ch.AbsorptionProbability([]int{q}, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range b {
		if math.Abs(p-1) > 1e-9 {
			t.Fatalf("state %d absorbed with probability %v", i, p)
		}
	}
}

func TestAbsorptionProbabilityFirstStep(t *testing.T) {
	// The solution must satisfy b_i = Σ_j p_ij·b_j with b fixed at the
	// absorbing states (1 at target, 0 elsewhere).
	g := figure2Graph(t)
	ch := chainOf(t, g)
	absorbing := []int{g.ItemNode(1), g.ItemNode(2)}
	target := absorbing[0]
	b, err := ch.AbsorptionProbability(absorbing, target)
	if err != nil {
		t.Fatal(err)
	}
	if b[target] != 1 || b[absorbing[1]] != 0 {
		t.Fatalf("boundary values wrong: %v %v", b[target], b[absorbing[1]])
	}
	for i := 0; i < ch.Len(); i++ {
		if i == target || i == absorbing[1] {
			continue
		}
		want := 0.0
		for j := 0; j < ch.Len(); j++ {
			want += markovtest.TransitionProb(ch.adj, i, j) * b[j]
		}
		if math.Abs(b[i]-want) > 1e-8 {
			t.Fatalf("first-step equation violated at %d: %v vs %v", i, b[i], want)
		}
	}
}

func TestAbsorptionProbabilityCloserTargetWins(t *testing.T) {
	// A path graph u0 - i0 - u1 - i1: from u0, absorption at i0 is certain
	// before i1 can be reached... both are absorbing, so walks from u0
	// must end at i0 with probability 1 (i0 blocks the only route to i1).
	b := graph.NewBuilder(2, 2)
	_ = b.AddRating(0, 0, 1)
	_ = b.AddRating(1, 0, 1)
	_ = b.AddRating(1, 1, 1)
	g := b.Build()
	ch := chainOf(t, g)
	absorbing := []int{g.ItemNode(0), g.ItemNode(1)}
	p0, err := ch.AbsorptionProbability(absorbing, g.ItemNode(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p0[g.UserNode(0)]-1) > 1e-9 {
		t.Fatalf("u0 absorbed at blocking item with probability %v", p0[g.UserNode(0)])
	}
	// u1 sits between both: absorbed at i0 with probability 1/2.
	if math.Abs(p0[g.UserNode(1)]-0.5) > 1e-9 {
		t.Fatalf("u1 absorbed at i0 with probability %v, want 0.5", p0[g.UserNode(1)])
	}
}

func TestAbsorptionProbabilityValidation(t *testing.T) {
	g := figure2Graph(t)
	ch := chainOf(t, g)
	if _, err := ch.AbsorptionProbability(nil, 0); err == nil {
		t.Fatal("empty absorbing set accepted")
	}
	if _, err := ch.AbsorptionProbability([]int{0}, 1); err == nil {
		t.Fatal("non-member target accepted")
	}
	if _, err := ch.AbsorptionProbability([]int{0}, -1); err == nil {
		t.Fatal("negative target accepted")
	}
}

// pathChain is the path 0 - 1 - … - n-1 with unit weights.
func pathChain(t *testing.T, n int) *Chain {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for i := 0; i+1 < n; i++ {
		coo.Add(i, i+1, 1)
		coo.Add(i+1, i, 1)
	}
	ch, err := NewChain(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestAbsorptionProbabilityPath checks the gambler's-ruin answer on a path
// absorbing at both ends, b_i = i/(n-1) for the far end, and that a path
// too long for the Gauss–Seidel sweep budget is an error rather than an
// unconverged vector (at 400 nodes the sweeps stop ≈ 1e-3 short).
func TestAbsorptionProbabilityPath(t *testing.T) {
	const n = 50
	b, err := pathChain(t, n).AbsorptionProbability([]int{0, n - 1}, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range b {
		if want := float64(i) / (n - 1); math.Abs(p-want) > 1e-9 {
			t.Fatalf("b[%d] = %v, want %v", i, p, want)
		}
	}
	if b, err := pathChain(t, 400).AbsorptionProbability([]int{0, 399}, 399); err == nil {
		t.Fatalf("400-node path: no error, b[200] = %v (want 0.5013)", b[200])
	}
}
