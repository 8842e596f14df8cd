package pagerank

import (
	"math"
	"math/rand"
	"testing"

	"longtailrec/internal/graph"
)

func figure2Graph(t testing.TB) *graph.Bipartite {
	t.Helper()
	g, err := graph.FromRatings(5, 6, []graph.Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 0, Item: 1, Weight: 3}, {User: 0, Item: 4, Weight: 3}, {User: 0, Item: 5, Weight: 5},
		{User: 1, Item: 0, Weight: 5}, {User: 1, Item: 1, Weight: 4}, {User: 1, Item: 2, Weight: 5}, {User: 1, Item: 4, Weight: 4}, {User: 1, Item: 5, Weight: 5},
		{User: 2, Item: 0, Weight: 4}, {User: 2, Item: 1, Weight: 5}, {User: 2, Item: 2, Weight: 4},
		{User: 3, Item: 2, Weight: 5}, {User: 3, Item: 3, Weight: 5},
		{User: 4, Item: 1, Weight: 4}, {User: 4, Item: 2, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPersonalizedIsDistribution(t *testing.T) {
	g := figure2Graph(t)
	ppr, err := Personalized(g, []int{g.UserNode(0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, p := range ppr {
		if p < 0 {
			t.Fatalf("negative PPR at %d", i)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("PPR sums to %v", sum)
	}
}

func TestPersonalizedSatisfiesFixedPoint(t *testing.T) {
	g := figure2Graph(t)
	restart := []int{g.UserNode(2)}
	opts := Options{Damping: 0.5, MaxIters: 2000, Tolerance: 1e-14}
	ppr, err := Personalized(g, restart, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Check p = λ·Pᵀ·p + (1-λ)·e_S componentwise.
	n := g.NumNodes()
	want := make([]float64, n)
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			continue
		}
		nbrs, ws := g.Neighbors(v)
		for k, u := range nbrs {
			want[u] += 0.5 * ppr[v] * ws[k] / g.Degree(v)
		}
	}
	want[restart[0]] += 0.5
	for i := range want {
		if math.Abs(want[i]-ppr[i]) > 1e-9 {
			t.Fatalf("fixed point violated at %d: %v vs %v", i, want[i], ppr[i])
		}
	}
}

func TestRestartNodeDominates(t *testing.T) {
	g := figure2Graph(t)
	q := g.UserNode(4)
	ppr, err := Personalized(g, []int{q}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ppr {
		if i != q && p > ppr[q] {
			t.Fatalf("node %d (%v) outranks the restart node (%v)", i, p, ppr[q])
		}
	}
}

func TestPPRFavorsPopularDPPRFavorsNiche(t *testing.T) {
	// The paper's motivation for DPPR: raw PPR ranks the popular M1 above
	// the niche M4 for U4 even though U4 rated M4's neighbor; dividing by
	// popularity flips the preference toward the tail.
	g := figure2Graph(t)
	u := 4 // U5 rated M2, M3
	restart := []int{g.ItemNode(1), g.ItemNode(2)}
	ppr, err := Personalized(g, restart, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dppr, err := Discounted(g, restart, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = u
	// M1 (item 0, popularity 3) vs M4 (item 3, popularity 1).
	m1, m4 := ppr[g.ItemNode(0)], ppr[g.ItemNode(3)]
	if m1 <= m4 {
		t.Fatalf("premise: PPR should favor popular M1 (%v) over niche M4 (%v)", m1, m4)
	}
	if dppr[3] <= dppr[0] {
		t.Fatalf("DPPR should favor niche M4 (%v) over popular M1 (%v)", dppr[3], dppr[0])
	}
}

func TestDiscountedZeroPopularity(t *testing.T) {
	// An item with no ratings must score 0, not NaN/Inf.
	g, err := graph.FromRatings(2, 3, []graph.Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 1, Item: 1, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	dppr, err := Discounted(g, []int{g.UserNode(0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dppr[2] != 0 {
		t.Fatalf("unrated item score %v", dppr[2])
	}
	for _, s := range dppr {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("non-finite DPPR %v", s)
		}
	}
}

func TestForUserRestartsFromItems(t *testing.T) {
	g := figure2Graph(t)
	scores, err := ForUser(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != g.NumItems() {
		t.Fatalf("scores length %d", len(scores))
	}
	// Must match Discounted with S_q = {M2, M3} explicitly.
	want, err := Discounted(g, []int{g.ItemNode(1), g.ItemNode(2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(scores[i]-want[i]) > 1e-12 {
			t.Fatalf("ForUser[%d] = %v, want %v", i, scores[i], want[i])
		}
	}
}

func TestErrorPaths(t *testing.T) {
	g := figure2Graph(t)
	if _, err := Personalized(g, nil, Options{}); err == nil {
		t.Fatal("empty restart accepted")
	}
	if _, err := Personalized(g, []int{-1}, Options{}); err == nil {
		t.Fatal("negative restart accepted")
	}
	if _, err := Personalized(g, []int{99}, Options{}); err == nil {
		t.Fatal("out-of-range restart accepted")
	}
}

func TestDanglingMassReseeded(t *testing.T) {
	// Graph with an isolated user: restarting from it keeps all mass there.
	g, err := graph.FromRatings(2, 1, []graph.Rating{{User: 0, Item: 0, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ppr, err := Personalized(g, []int{g.UserNode(1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ppr[g.UserNode(1)]-1) > 1e-9 {
		t.Fatalf("isolated restart mass %v, want 1", ppr[g.UserNode(1)])
	}
}

func TestHigherDampingSpreadsMass(t *testing.T) {
	g := figure2Graph(t)
	q := g.UserNode(0)
	low, err := Personalized(g, []int{q}, Options{Damping: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Personalized(g, []int{q}, Options{Damping: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if high[q] >= low[q] {
		t.Fatalf("restart mass should shrink with damping: %v vs %v", high[q], low[q])
	}
}

func TestSymmetryOfEquivalentUsers(t *testing.T) {
	// Two users with identical rating profiles must get identical PPR
	// item scores.
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(3, 6)
	for _, i := range []int{0, 2, 4} {
		_ = b.AddRating(0, i, 4)
		_ = b.AddRating(1, i, 4)
	}
	for i := 0; i < 6; i++ {
		if rng.Float64() < 0.5 {
			_ = b.AddRating(2, i, 3)
		}
	}
	g := b.Build()
	a, err := ForUser(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ForUser(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-c[i]) > 1e-12 {
			t.Fatalf("equivalent users diverge at item %d: %v vs %v", i, a[i], c[i])
		}
	}
}
