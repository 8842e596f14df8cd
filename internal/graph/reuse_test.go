package graph

import (
	"math"
	"testing"
)

// requireBitSymmetric asserts that every stored (v, w, x) has its mirror
// (w, v) holding a Float64bits-equal x, through the live rows and, after a
// fold, through the base CSR too. The fused kernel adds a row's absorbing
// terms from the absorbing rows (markov.AbsorbingCostFused), so an
// asymmetric last bit would move scores.
func requireBitSymmetric(t *testing.T, what string, g *Bipartite) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		nbrs, ws := g.Neighbors(v)
		for k, w := range nbrs {
			if back := g.Weight(w, v); math.Float64bits(back) != math.Float64bits(ws[k]) {
				t.Fatalf("%s: a(%d,%d) = %v (%#x) but a(%d,%d) = %v (%#x)", what, v, w, ws[k], math.Float64bits(ws[k]), w, v, back, math.Float64bits(back))
			}
		}
	}
	adj := g.Adjacency()
	for v := 0; v < len(g.shared.base.Load().degrees); v++ {
		cols, vals := adj.Row(v)
		for k, w := range cols {
			if back := adj.At(w, v); math.Float64bits(back) != math.Float64bits(vals[k]) {
				t.Fatalf("%s: base a(%d,%d) = %v but a(%d,%d) = %v", what, v, w, vals[k], w, v, back)
			}
		}
	}
}

// TestUndirectedWeightsBitSymmetric holds every write path to Float64bits
// symmetry: builder duplicates summed from fractional weights, AddRating /
// UpdateRating / UpsertRating, UpsertRatingsBatch, an auto-grow admission
// on a sibling view and the group fold that publishes it.
func TestUndirectedWeightsBitSymmetric(t *testing.T) {
	b := NewBuilder(5, 9) // items 7 and 8 stay unrated
	fractions := []float64{0.1, 0.7, 1.3, 0.2, 2.9, 0.3}
	for k := 0; k < 60; k++ {
		// Every pair is rated several times: the builder sums duplicates, in
		// whatever order it meets them, once per direction.
		if err := b.AddRating(k%5, (k*3)%7, fractions[k%len(fractions)]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	requireBitSymmetric(t, "builder duplicates", g)

	added := false
	for i := 0; i < g.NumItems() && !added; i++ {
		if g.Weight(g.UserNode(0), g.ItemNode(i)) == 0 {
			if err := g.AddRating(0, i, 0.1+0.2); err != nil {
				t.Fatal(err)
			}
			added = true
		}
	}
	if !added {
		t.Fatal("fixture: user 0 rated every item, nothing left to add")
	}
	if _, err := g.UpsertRating(1, 2, 1.0/3); err != nil {
		t.Fatal(err)
	}
	if err := g.UpdateRating(1, 2, 2.0/3); err != nil {
		t.Fatal(err)
	}
	requireBitSymmetric(t, "single writes", g)

	for _, r := range g.UpsertRatingsBatch([]WriteOp{{User: 2, Item: 3, Score: 0.7}, {User: 4, Item: 6, Score: 1e-3}, {User: 2, Item: 3, Score: 4.1}}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	requireBitSymmetric(t, "batch", g)

	views := ShareViews(g, 2)
	if _, err := views[1].UpsertRatingAutoGrow(6, 9, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := views[1].UpsertRating(3, 0, 5.0/7); err != nil {
		t.Fatal(err)
	}
	requireBitSymmetric(t, "sibling auto-grow", views[1])
	views[0].Compact()
	for _, v := range views {
		requireBitSymmetric(t, "group fold", v)
	}
}

// islandGraph builds two disconnected rating islands: users 0-3 over items
// 0-4 and users 4-7 over items 5-9, fractional weights.
func islandGraph(t *testing.T) *Bipartite {
	t.Helper()
	b := NewBuilder(8, 10)
	for u := 0; u < 8; u++ {
		base := (u / 4) * 5
		for k := 0; k < 3; k++ {
			if err := b.AddRating(u, base+(u+2*k)%5, 0.5+0.25*float64(u+k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

// TestExtractorKeepsComponent walks one extractor through the life of a
// kept component: reused by another seed set inside it and through a
// write to the other island; dropped by a write to its own island, a
// fold, seeds outside it, a budget it does not fit, an admission through
// a sibling view and a fold that publishes a sibling's write into it.
// Reuse is read off the stamp epoch, which only a fresh extraction moves;
// every answer, reused or not, must match the naive reference.
func TestExtractorKeepsComponent(t *testing.T) {
	g := islandGraph(t)
	ext := NewSubgraphExtractor(g)
	seeds := func(u int) []int {
		rated, _ := ext.Graph().Neighbors(ext.Graph().UserNode(u))
		return rated
	}
	step := func(what string, u, maxItems int, wantReuse bool) {
		t.Helper()
		before := ext.epoch
		sg, err := ext.ExtractByID(seeds(u), maxItems)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if reused := ext.epoch == before; reused != wantReuse {
			t.Fatalf("%s: reused %v, want %v", what, reused, wantReuse)
		}
		requireMatchesRefByID(t, ext.Graph(), sg, seeds(u), maxItems)
		// The seeds-first layout of the same call is derived from the
		// build just kept (or built afresh when nothing is kept).
		if sg, err = ext.Extract(seeds(u), maxItems); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireMatchesRef(t, ext.Graph(), sg, seeds(u), maxItems)
	}
	step("first build", 0, 0, false)
	step("another user of the island", 2, 0, true)
	step("a budget it fits", 3, 5, true)
	if _, err := g.UpsertRating(5, 7, 1.5); err != nil {
		t.Fatal(err)
	}
	step("after a write to the other island", 1, 0, true)
	if _, err := g.UpsertRating(1, 4, 2.5); err != nil {
		t.Fatal(err)
	}
	step("after a write to its own island", 0, 0, false)
	step("reused again", 3, 0, true)
	g.Compact()
	step("after a fold", 2, 0, false)
	step("seeds in the other island", 6, 0, false)
	step("back in the first island", 0, 0, false)
	step("a budget it does not fit", 1, 2, false)
	step("nothing kept from a truncated build", 1, 2, false)

	views := ShareViews(g, 2)
	step("after ShareViews folds", 0, 0, false)
	step("reused on view 0", 1, 0, true)
	views[1].AddUser()
	step("after an admission through the sibling", 0, 0, false)
	// User 2 routes to the sibling; its write is invisible to view 0 until
	// the fold publishes it.
	if _, err := views[1].UpsertRating(2, 0, 4.75); err != nil {
		t.Fatal(err)
	}
	step("a sibling's pending write", 1, 0, true)
	views[1].Compact()
	step("after the fold publishes it", 1, 0, false)
}

// TestExtractorKeepsOneComponentOnly: seeds spanning both islands extract
// their union, which is whole but not one component — a later seed set
// inside one island must not be served the union.
func TestExtractorKeepsOneComponentOnly(t *testing.T) {
	g := islandGraph(t)
	ext := NewSubgraphExtractor(g)
	both := []int{g.ItemNode(0), g.ItemNode(9)}
	sg, err := ext.ExtractByID(both, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sg.whole || sg.Len() != g.NumNodes() {
		t.Fatalf("union of both islands: whole %v, %d of %d nodes", sg.whole, sg.Len(), g.NumNodes())
	}
	one := []int{g.ItemNode(1)}
	if sg, err = ext.ExtractByID(one, 0); err != nil {
		t.Fatal(err)
	}
	requireMatchesRefByID(t, g, sg, one, 0)
}
