package graph

import (
	"math/rand"
	"testing"
)

// randomTestGraph builds a connected-ish random bipartite graph for
// extractor equivalence tests.
func randomTestGraph(t *testing.T, numUsers, numItems, edges int, seed int64) *Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(numUsers, numItems)
	for e := 0; e < edges; e++ {
		u := rng.Intn(numUsers)
		i := rng.Intn(numItems)
		if err := b.AddRating(u, i, float64(1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	// Spine so most nodes are reachable from user 0.
	for i := 0; i < numItems; i++ {
		if err := b.AddRating(i%numUsers, i, 3); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// requireSameSubgraph asserts two subgraphs agree on nodes, adjacency and
// cached degrees.
func requireSameSubgraph(t *testing.T, want, got *Subgraph) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("node count %d, want %d", got.Len(), want.Len())
	}
	if want.NumItemNodes() != got.NumItemNodes() {
		t.Fatalf("item count %d, want %d", got.NumItemNodes(), want.NumItemNodes())
	}
	for l := 0; l < want.Len(); l++ {
		if want.OriginalNode(l) != got.OriginalNode(l) {
			t.Fatalf("node order diverges at local %d: %d vs %d", l, got.OriginalNode(l), want.OriginalNode(l))
		}
	}
	if !want.Adjacency().Equal(got.Adjacency(), 0) {
		t.Fatal("local adjacency differs")
	}
	wd, gd := want.Degrees(), got.Degrees()
	for l := range wd {
		if wd[l] != gd[l] {
			t.Fatalf("degree[%d] = %v, want %v", l, gd[l], wd[l])
		}
	}
}

// TestExtractorReuseMatchesOneShot runs many queries through one reused
// extractor and checks each against a fresh one-shot extraction — the
// epoch-stamped scratch must never leak state between queries.
func TestExtractorReuseMatchesOneShot(t *testing.T) {
	g := randomTestGraph(t, 40, 120, 500, 1)
	ext := NewSubgraphExtractor(g)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 50; q++ {
		u := rng.Intn(g.NumUsers())
		seeds, _ := g.Neighbors(g.UserNode(u))
		if len(seeds) == 0 {
			seeds = []int{g.UserNode(u)}
		}
		maxItems := []int{0, 3, 10, 50}[q%4]
		got, err := ext.Extract(seeds, maxItems)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExtractSubgraph(g, seeds, maxItems)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSubgraph(t, want, got)
		// The reverse mapping must cover exactly the subgraph's nodes.
		for l := 0; l < got.Len(); l++ {
			orig := got.OriginalNode(l)
			if ll, ok := got.LocalNode(orig); !ok || ll != l {
				t.Fatalf("LocalNode(%d) = %d,%v, want %d,true", orig, ll, ok, l)
			}
		}
		misses := 0
		for v := 0; v < g.NumNodes(); v++ {
			if _, ok := got.LocalNode(v); !ok {
				misses++
			}
		}
		if misses != g.NumNodes()-got.Len() {
			t.Fatalf("LocalNode claims %d members, subgraph has %d", g.NumNodes()-misses, got.Len())
		}
	}
}

// TestExtractorSeedsOccupyPrefix locks in the contract the query engine
// and the benchmark's replay rely on: distinct seeds take local ids 0..s-1
// in seed order, whatever that order is; every other member follows, users
// then items — which on a graph without admitted nodes, like this one, is
// plain ascending original id.
func TestExtractorSeedsOccupyPrefix(t *testing.T) {
	g := randomTestGraph(t, 10, 30, 100, 3)
	rated, _ := g.Neighbors(g.UserNode(4))
	descending := make([]int, len(rated))
	for k, s := range rated {
		descending[len(rated)-1-k] = s
	}
	cases := map[string][]int{
		"ascending (the engine's S_q)": rated,
		"descending":                   descending,
		"duplicated":                   {rated[1], rated[0], rated[1], rated[0], rated[2]},
		"mixed user and item":          {g.ItemNode(7), g.UserNode(2), g.ItemNode(3), g.UserNode(9), g.UserNode(2)},
		"one user (HT)":                {g.UserNode(4)},
	}
	ext := NewSubgraphExtractor(g)
	for name, seeds := range cases {
		for _, maxItems := range []int{0, 8} {
			sg, err := ext.Extract(seeds, maxItems)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var distinct []int
			seen := map[int]bool{}
			for _, s := range seeds {
				if !seen[s] {
					seen[s] = true
					distinct = append(distinct, s)
				}
			}
			for l := 0; l < sg.Len(); l++ {
				switch orig := sg.OriginalNode(l); {
				case l < len(distinct):
					if orig != distinct[l] {
						t.Fatalf("%s µ=%d: local %d = node %d, want seed %d", name, maxItems, l, orig, distinct[l])
					}
				case seen[orig]:
					t.Fatalf("%s µ=%d: seed %d numbered twice (local %d)", name, maxItems, orig, l)
				case l > len(distinct) && orig <= sg.OriginalNode(l-1):
					t.Fatalf("%s µ=%d: non-seed locals %d,%d = nodes %d,%d not ascending", name, maxItems, l-1, l, sg.OriginalNode(l-1), orig)
				}
			}
			requireMatchesRef(t, g, sg, seeds, maxItems)
		}
	}
}

// budgetTestGraph: u0 rates i0..i3, u1 rates i0 and i4, u2 rates i3 and i5.
func budgetTestGraph(t *testing.T) *Bipartite {
	t.Helper()
	g, err := FromRatings(3, 6, []Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 0, Item: 1, Weight: 1.5}, {User: 0, Item: 2, Weight: 2.5}, {User: 0, Item: 3, Weight: 4},
		{User: 1, Item: 0, Weight: 3}, {User: 1, Item: 4, Weight: 0.7},
		{User: 2, Item: 3, Weight: 2}, {User: 2, Item: 5, Weight: 1.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExtractorBudgetCutsMidFrontier pins membership where µ runs out in
// the middle of a row: the item that crosses the budget is still admitted,
// the rest of that row's items are not, and no later row is expanded — so
// a user adjacent to an admitted item can be missing. Membership is what
// the discovery-order BFS decides; only the numbering is by original id.
func TestExtractorBudgetCutsMidFrontier(t *testing.T) {
	g := budgetTestGraph(t)
	u, i := g.UserNode, g.ItemNode
	cases := []struct {
		name     string
		seeds    []int
		maxItems int
		want     []int // local id -> original node
		items    int
	}{
		// u0's row: i0, i1 fill the budget, i2 crosses it, i3 is skipped;
		// i0 is never expanded, so u1 stays out.
		{"user seed", []int{u(0)}, 2, []int{u(0), i(0), i(1), i(2)}, 3},
		// Item rows admit all their users (users are free); u0's row then
		// crosses at i2; u1's and u2's rows (i4, i5) are never expanded.
		{"item seeds, descending", []int{i(3), i(0)}, 3, []int{i(3), i(0), u(0), u(1), u(2), i(1), i(2)}, 4},
		// Seeds alone exceed the budget: nothing is expanded at all.
		{"seeds over budget", []int{i(5), i(4), i(0)}, 2, []int{i(5), i(4), i(0)}, 3},
	}
	for _, c := range cases {
		sg, err := ExtractSubgraph(g, c.seeds, c.maxItems)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sg.Len() != len(c.want) || sg.NumItemNodes() != c.items {
			t.Fatalf("%s: %d nodes / %d items, want %d / %d", c.name, sg.Len(), sg.NumItemNodes(), len(c.want), c.items)
		}
		for l, orig := range c.want {
			if sg.OriginalNode(l) != orig {
				t.Fatalf("%s: local %d = node %d, want %d", c.name, l, sg.OriginalNode(l), orig)
			}
		}
		requireMatchesRef(t, g, sg, c.seeds, c.maxItems)
	}
}

// TestExtractorSeesOverlayAndAdmittedNodes extracts from a graph with
// pending overlay rows (an updated and a new edge on base nodes) and with
// users and items admitted live, whose node ids lie beyond the base CSR
// and interleave users with items.
func TestExtractorSeesOverlayAndAdmittedNodes(t *testing.T) {
	g := budgetTestGraph(t)
	if err := g.UpdateRating(0, 1, 4.5); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		u, i int
		w    float64
	}{{1, 2, 3.5}, {3, 6, 2}, {4, 0, 1}, {3, 7, 5}, {2, 6, 0.5}} {
		if _, err := g.UpsertRatingAutoGrow(w.u, w.i, w.w); err != nil {
			t.Fatal(err)
		}
	}
	if g.PendingWrites() == 0 || g.NumNodes() != 13 {
		t.Fatalf("fixture: %d pending writes, %d nodes", g.PendingWrites(), g.NumNodes())
	}
	ext := NewSubgraphExtractor(g)
	for _, seeds := range [][]int{
		{g.UserNode(3)},                // an admitted user (HT)
		{g.ItemNode(7), g.ItemNode(6)}, // admitted items, descending
		{g.ItemNode(6), g.UserNode(0), g.ItemNode(2)},
	} {
		for _, maxItems := range []int{0, 3} {
			sg, err := ext.Extract(seeds, maxItems)
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesRef(t, g, sg, seeds, maxItems)
		}
	}
	sg, err := ext.Extract([]int{g.UserNode(0)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Len() != g.NumNodes() {
		t.Fatalf("whole component has %d nodes, graph %d", sg.Len(), g.NumNodes())
	}
	l0, _ := sg.LocalNode(g.UserNode(0))
	l1, _ := sg.LocalNode(g.ItemNode(1))
	if got := sg.Adjacency().At(l0, l1); got != 4.5 {
		t.Fatalf("pending update not extracted: weight %v, want 4.5", got)
	}
}

// TestExtractorReusedAcrossGrowth keeps one extractor while the universe
// outgrows its stamp arrays (headroom is n/8, so doubling the node count
// forces a re-size and an epoch restart) and checks extractions on both
// sides of the growth.
func TestExtractorReusedAcrossGrowth(t *testing.T) {
	g := randomTestGraph(t, 6, 10, 30, 5)
	ext := NewSubgraphExtractor(g)
	check := func() {
		t.Helper()
		for _, seeds := range [][]int{{g.UserNode(0)}, {g.ItemNode(g.NumItems() - 1), g.ItemNode(0)}} {
			for _, maxItems := range []int{0, 4} {
				sg, err := ext.Extract(seeds, maxItems)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesRef(t, g, sg, seeds, maxItems)
			}
		}
	}
	check()
	before := g.NumNodes()
	rng := rand.New(rand.NewSource(6))
	for g.NumNodes() < 2*before {
		u, i := rng.Intn(g.NumUsers()+2), rng.Intn(g.NumItems()+2)
		if _, err := g.UpsertRatingAutoGrow(u, i, float64(1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	check()
	g.Compact()
	check()
}

// TestExtractorBlocksUnderGrowth admits users and items alternately, so
// their node ids interleave past the base, rates them against each other
// and against base nodes, and checks what the block schedule of the fused
// sweeps rests on: behind the seeds the subgraph is one contiguous run of
// users, then one of items, each ascending in original id; rows stay
// strictly increasing although local ids no longer ascend with original
// ids; and the cached degrees are bit-equal to the row sums (the last two
// through requireMatchesRef).
func TestExtractorBlocksUnderGrowth(t *testing.T) {
	g := randomTestGraph(t, 6, 10, 30, 7)
	baseUsers, baseItems := g.NumUsers(), g.NumItems()
	rng := rand.New(rand.NewSource(8))
	upsert := func(u, i int) {
		t.Helper()
		if _, err := g.UpsertRatingAutoGrow(u, i, float64(1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 8; k++ {
		upsert(g.NumUsers(), rng.Intn(baseItems)) // admits a user
		upsert(rng.Intn(baseUsers), g.NumItems()) // admits an item
	}
	for k := 0; k < 60; k++ {
		upsert(baseUsers+rng.Intn(8), baseItems+rng.Intn(8)) // admitted x admitted
		upsert(rng.Intn(g.NumUsers()), rng.Intn(g.NumItems()))
	}
	if u, i := g.UserNode(g.NumUsers()-1), g.ItemNode(baseItems); u < i {
		t.Fatalf("fixture: last user node %d below first admitted item node %d, nothing interleaves", u, i)
	}
	ext := NewSubgraphExtractor(g)
	check := func(seeds []int, maxItems int) {
		t.Helper()
		sg, err := ext.Extract(seeds, maxItems)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sg.Blocks()
		for l := a; l < sg.Len(); l++ {
			orig := sg.OriginalNode(l)
			if g.IsItemNode(orig) != (l >= b) {
				t.Fatalf("seeds %v µ=%d: local %d (node %d) in the wrong block, blocks (%d,%d)", seeds, maxItems, l, orig, a, b)
			}
			if l != a && l != b && orig <= sg.OriginalNode(l-1) {
				t.Fatalf("seeds %v µ=%d: locals %d,%d = nodes %d,%d not ascending inside their block", seeds, maxItems, l-1, l, sg.OriginalNode(l-1), orig)
			}
		}
		// Strictly increasing rows, degrees bit-equal to row sums, no entry
		// inside a block, and the numbering against the naive reference.
		requireMatchesRef(t, g, sg, seeds, maxItems)
	}
	for round := 0; round < 2; round++ {
		for _, maxItems := range []int{0, 5} {
			check([]int{g.UserNode(0)}, maxItems)                // HT, base user
			check([]int{g.UserNode(g.NumUsers() - 1)}, maxItems) // HT, admitted user
			for _, u := range []int{1, baseUsers + 2} {
				rated, _ := g.Neighbors(g.UserNode(u)) // S_q: base and admitted items
				check(rated, maxItems)
			}
			check([]int{g.ItemNode(g.NumItems() - 1), g.UserNode(baseUsers), g.ItemNode(0)}, maxItems)
		}
		g.Compact() // same numbering from the folded base
	}
}

// TestExtractorDegreesMatchAdjacency verifies the cached degree vector
// equals the row sums of the local adjacency.
func TestExtractorDegreesMatchAdjacency(t *testing.T) {
	g := randomTestGraph(t, 25, 60, 300, 4)
	sg, err := ExtractSubgraph(g, []int{g.UserNode(0)}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for l, d := range sg.Degrees() {
		if rs := sg.Adjacency().RowSum(l); rs != d {
			t.Fatalf("degree[%d] = %v, adjacency row sum %v", l, d, rs)
		}
	}
}

// TestExtractorRowsSorted checks the CSR invariant on a hub row long
// enough to hold many columns of both kinds, with the seeds passed in
// descending order so the hub's seed run arrives reversed and has to go
// through the insertion pass.
func TestExtractorRowsSorted(t *testing.T) {
	// A hub user rated by everything forces a long row.
	b := NewBuilder(3, 60)
	for i := 0; i < 60; i++ {
		if err := b.AddRating(0, i, 1+float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddRating(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRating(2, 59, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	seeds := []int{g.ItemNode(59), g.ItemNode(30), g.ItemNode(31), g.ItemNode(0)}
	sg, err := ExtractSubgraph(g, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	adj := sg.Adjacency()
	for l := 0; l < sg.Len(); l++ {
		cols, _ := adj.Row(l)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatalf("row %d columns not strictly increasing: %v", l, cols)
			}
		}
	}
	hub, _ := sg.LocalNode(g.UserNode(0))
	if cols, _ := adj.Row(hub); len(cols) != 60 || cols[3] != 3 {
		t.Fatalf("hub row does not start with its %d seed columns: %v", len(seeds), cols)
	}
	requireMatchesRef(t, g, sg, seeds, 0)
}
