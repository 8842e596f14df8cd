package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// figure2Ratings is the exact rating table of Figure 2 in the paper:
//
//	    M1 M2 M3 M4 M5 M6
//	U1   5  3  -  -  3  5
//	U2   5  4  5  -  4  5
//	U3   4  5  4  -  -  -
//	U4   -  -  5  5  -  -
//	U5   -  4  5  -  -  -
func figure2Ratings() []Rating {
	return []Rating{
		{0, 0, 5}, {0, 1, 3}, {0, 4, 3}, {0, 5, 5},
		{1, 0, 5}, {1, 1, 4}, {1, 2, 5}, {1, 4, 4}, {1, 5, 5},
		{2, 0, 4}, {2, 1, 5}, {2, 2, 4},
		{3, 2, 5}, {3, 3, 5},
		{4, 1, 4}, {4, 2, 5},
	}
}

func figure2Graph(t testing.TB) *Bipartite {
	g, err := FromRatings(5, 6, figure2Ratings())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildFigure2(t *testing.T) {
	g := figure2Graph(t)
	if g.NumUsers() != 5 || g.NumItems() != 6 || g.NumNodes() != 11 {
		t.Fatalf("sizes %d/%d/%d", g.NumUsers(), g.NumItems(), g.NumNodes())
	}
	if g.NumEdges() != 16 {
		t.Fatalf("edges %d, want 16", g.NumEdges())
	}
	// U2's degree: 5+4+5+4+5 = 23.
	if d := g.Degree(g.UserNode(1)); d != 23 {
		t.Fatalf("deg(U2) = %v, want 23", d)
	}
	// M4 rated only by U4 with 5.
	if d := g.Degree(g.ItemNode(3)); d != 5 {
		t.Fatalf("deg(M4) = %v, want 5", d)
	}
	// Symmetric weights.
	if g.Weight(g.UserNode(4), g.ItemNode(2)) != 5 || g.Weight(g.ItemNode(2), g.UserNode(4)) != 5 {
		t.Fatal("weight not symmetric")
	}
}

func TestNodeMapping(t *testing.T) {
	g := figure2Graph(t)
	if !g.IsUserNode(0) || g.IsItemNode(0) {
		t.Fatal("node 0 should be a user")
	}
	in := g.ItemNode(2)
	if !g.IsItemNode(in) || g.ItemIndex(in) != 2 {
		t.Fatalf("item node mapping broken: %d", in)
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2, 2)
	if err := b.AddRating(-1, 0, 5); err == nil {
		t.Fatal("negative user accepted")
	}
	if err := b.AddRating(0, 2, 5); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if err := b.AddRating(0, 0, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := b.AddRating(0, 0, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	// The live-write rule: NaN and +Inf would poison degrees for good.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := b.AddRating(0, 0, w); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if err := b.AddRating(1, 1, 3); err != nil {
		t.Fatalf("valid rating rejected: %v", err)
	}
}

func TestDuplicateRatingsSum(t *testing.T) {
	g, err := FromRatings(1, 1, []Rating{{0, 0, 2}, {0, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Weight(0, 1); w != 5 {
		t.Fatalf("duplicate edge weight %v, want 5", w)
	}
}

func TestTimeReversibility(t *testing.T) {
	// π_i p_ij = π_j p_ji for all edges (§3.3).
	g := figure2Graph(t)
	for v := 0; v < g.NumNodes(); v++ {
		nbrs, ws := g.Neighbors(v)
		for k, w := range nbrs {
			pvw := ws[k] / g.Degree(v)
			pwv := g.Weight(w, v) / g.Degree(w)
			// π_v = d_v / Σ d (Eq. 2).
			piV, piW := g.Degree(v)/g.TotalWeight(), g.Degree(w)/g.TotalWeight()
			if math.Abs(piV*pvw-piW*pwv) > 1e-15 {
				t.Fatalf("reversibility violated on edge (%d,%d)", v, w)
			}
		}
	}
}

func TestItemPopularity(t *testing.T) {
	g := figure2Graph(t)
	pop := g.ItemPopularity()
	want := []int{3, 4, 4, 1, 2, 2}
	for i := range want {
		if pop[i] != want[i] {
			t.Fatalf("popularity[%d] = %d, want %d", i, pop[i], want[i])
		}
	}
}

func TestUserItems(t *testing.T) {
	g := figure2Graph(t)
	items, weights := g.UserItems(4) // U5 rated M2:4, M3:5
	if len(items) != 2 {
		t.Fatalf("U5 has %d items", len(items))
	}
	got := map[int]float64{}
	for k, it := range items {
		got[it] = weights[k]
	}
	if got[1] != 4 || got[2] != 5 {
		t.Fatalf("U5 items = %v", got)
	}
}

func TestConnectedComponentsSingle(t *testing.T) {
	g := figure2Graph(t)
	_, count := g.ConnectedComponents()
	if count != 1 {
		t.Fatalf("Figure 2 graph has %d components, want 1", count)
	}
}

func TestConnectedComponentsIsolated(t *testing.T) {
	// User 1 and item 1 never rated: two extra singleton components.
	g, err := FromRatings(2, 2, []Rating{{0, 0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[2] {
		t.Fatal("rated pair not in same component")
	}
}

func TestExtractSubgraphWholeGraph(t *testing.T) {
	g := figure2Graph(t)
	sg, err := ExtractSubgraph(g, []int{g.UserNode(4)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Len() != g.NumNodes() {
		t.Fatalf("unlimited subgraph has %d nodes, want %d", sg.Len(), g.NumNodes())
	}
	if sg.NumItemNodes() != 6 {
		t.Fatalf("subgraph items %d, want 6", sg.NumItemNodes())
	}
}

func TestExtractSubgraphLimited(t *testing.T) {
	g := figure2Graph(t)
	sg, err := ExtractSubgraph(g, []int{g.ItemNode(1), g.ItemNode(2)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumItemNodes() < 2 {
		t.Fatal("seeds lost from subgraph")
	}
	// Seeds must be present and mapped consistently.
	for _, orig := range []int{g.ItemNode(1), g.ItemNode(2)} {
		l, ok := sg.LocalNode(orig)
		if !ok {
			t.Fatalf("seed %d missing", orig)
		}
		if sg.OriginalNode(l) != orig {
			t.Fatal("local/original mapping inconsistent")
		}
		if !sg.IsItemLocal(l) {
			t.Fatal("item seed not flagged as item")
		}
	}
}

func TestSubgraphAdjacencyMatchesParent(t *testing.T) {
	g := figure2Graph(t)
	sg, err := ExtractSubgraph(g, []int{g.UserNode(3)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	adj := sg.Adjacency()
	for li := 0; li < sg.Len(); li++ {
		for lj := 0; lj < sg.Len(); lj++ {
			want := g.Weight(sg.OriginalNode(li), sg.OriginalNode(lj))
			if got := adj.At(li, lj); got != want {
				t.Fatalf("subgraph weight (%d,%d) = %v, want %v", li, lj, got, want)
			}
		}
	}
}

func TestSubgraphItemLocals(t *testing.T) {
	g := figure2Graph(t)
	sg, err := ExtractSubgraph(g, []int{g.UserNode(0)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	locals := sg.ItemLocals()
	if len(locals) != 6 {
		t.Fatalf("ItemLocals = %d, want 6", len(locals))
	}
	for _, l := range locals {
		if !sg.IsItemLocal(l) || sg.IsUserLocal(l) {
			t.Fatal("ItemLocals returned a non-item")
		}
	}
}

func TestExtractSubgraphErrors(t *testing.T) {
	g := figure2Graph(t)
	if _, err := ExtractSubgraph(g, nil, 5); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := ExtractSubgraph(g, []int{99}, 5); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

// randomGraph builds a connected-ish random bipartite graph for property tests.
func randomGraph(rng *rand.Rand, nu, ni int) *Bipartite {
	b := NewBuilder(nu, ni)
	for u := 0; u < nu; u++ {
		// Each user rates at least one item so no user is isolated.
		k := 1 + rng.Intn(ni)
		for _, i := range rng.Perm(ni)[:k] {
			_ = b.AddRating(u, i, float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

func TestQuickDegreeSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(8), 2+r.Intn(8))
		// Sum of user degrees equals sum of item degrees (each edge
		// contributes its weight to exactly one user and one item).
		us, is := 0.0, 0.0
		for u := 0; u < g.NumUsers(); u++ {
			us += g.Degree(g.UserNode(u))
		}
		for i := 0; i < g.NumItems(); i++ {
			is += g.Degree(g.ItemNode(i))
		}
		return math.Abs(us-is) < 1e-9 && math.Abs(us+is-g.TotalWeight()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubgraphRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(10), 5+r.Intn(20))
		mu := 1 + r.Intn(6)
		seed0 := g.UserNode(r.Intn(g.NumUsers()))
		sg, err := ExtractSubgraph(g, []int{seed0}, mu)
		if err != nil {
			return false
		}
		// BFS adds at most one full neighbor fan-out past the budget; the
		// guarantee is "stop expanding once count exceeds µ", so the final
		// count never exceeds µ+1 plus the last node's item neighbors is
		// bounded by µ + 1 + maxDegree. We assert the tighter practical
		// bound: expansion stopped, i.e. count <= µ + fan-out of one node.
		maxFan := 0
		for v := 0; v < g.NumNodes(); v++ {
			nbrs, _ := g.Neighbors(v)
			if len(nbrs) > maxFan {
				maxFan = len(nbrs)
			}
		}
		return sg.NumItemNodes() <= mu+maxFan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
