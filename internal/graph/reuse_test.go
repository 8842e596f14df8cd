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
	for v := 0; v < len(g.base.Load().degrees); v++ {
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
// and the fold that publishes it.
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

	if _, err := g.UpsertRatingAutoGrow(6, 9, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpsertRating(3, 0, 5.0/7); err != nil {
		t.Fatal(err)
	}
	requireBitSymmetric(t, "auto-grow", g)
	g.Compact()
	requireBitSymmetric(t, "fold", g)
}

// islandGraph builds k disconnected rating islands of users users over
// items items each (users >= items-1, so each island is one component):
// user j of an island rates the island's items j, j+1 and j+3 (mod
// items), with non-dyadic weights so that summation order shows in the
// last bit.
func islandGraph(t *testing.T, k, users, items int) *Bipartite {
	t.Helper()
	b := NewBuilder(k*users, k*items)
	for u := 0; u < k*users; u++ {
		base, j := (u/users)*items, u%users
		for _, d := range []int{0, 1, 3} {
			if err := b.AddRating(u, base+(j+d)%items, 0.3+0.1*float64((u+d)%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

// extractByID is ext.ExtractByID reporting whether it ran a fresh
// extraction: a kept build, reused or refreshed, is served from its own
// storage, a fresh extraction from the scratch build.
func extractByID(ext *SubgraphExtractor, seeds []int, maxItems int) (*Subgraph, bool, error) {
	var held *Subgraph
	if k := ext.holding(seeds); k >= 0 {
		held = &ext.kept[k].sub
	}
	sg, err := ext.ExtractByID(seeds, maxItems)
	return sg, sg != held, err
}

// TestExtractorKeepsComponent walks one extractor through the life of a
// kept component: reused by another seed set inside it, through a write
// to the other island, through a write to its own island (refreshed from
// the journal, see TestExtractorRefresh), while the other island is built
// and kept beside it and through a fold with nothing pending; rebuilt
// after a fold, a budget it does not fit (which replaces it) and an
// admission. The islands hold 70 members each, more than a build's least
// charge (see keep), so both fit. Every answer, reused or not, must match
// the naive reference.
func TestExtractorKeepsComponent(t *testing.T) {
	const users, items = 40, 30
	g := islandGraph(t, 2, users, items)
	ext := NewSubgraphExtractor(g)
	seeds := func(u int) []int {
		rated, _ := ext.Graph().Neighbors(ext.Graph().UserNode(u))
		return rated
	}
	step := func(what string, u, maxItems int, wantReuse bool) {
		t.Helper()
		sg, rebuilt, err := extractByID(ext, seeds(u), maxItems)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rebuilt == wantReuse {
			t.Fatalf("%s: reused %v, want %v", what, !rebuilt, wantReuse)
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
	step("a budget it fits", 3, items, true)
	if _, err := g.UpsertRating(users+5, items+7, 1.5); err != nil {
		t.Fatal(err)
	}
	step("after a write to the other island", 1, 0, true)
	if _, err := g.UpsertRating(1, 4, 2.5); err != nil {
		t.Fatal(err)
	}
	step("after a write to its own island", 0, 0, true)
	step("reused again", 3, 0, true)
	g.Compact()
	step("after a fold", 2, 0, false)
	step("seeds in the other island", users+6, 0, false)
	step("back in the first island", 0, 0, true)
	step("a budget it does not fit", 1, 2, false)
	step("nothing kept from a truncated build", 1, 2, false)

	step("rebuilt after the truncated build", 0, 0, false)
	step("reused after the rebuild", 1, 0, true)
	g.AddUser()
	step("after an admission", 0, 0, false)
	step("reused after the admission", 1, 0, true)
	g.Compact()
	step("after the fold publishing the admission", 2, 0, false)
	g.Compact()
	step("a fold with nothing pending", 3, 0, true)
}

// TestExtractorKeepsOneComponentOnly: seeds spanning both islands extract
// their union, which is whole but not one component — a later seed set
// inside one island must not be served the union.
func TestExtractorKeepsOneComponentOnly(t *testing.T) {
	g := islandGraph(t, 2, 4, 5)
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

// TestExtractorRefresh holds each branch of bringing a kept component up
// to date from the write journal, and the bounds on what is kept.
func TestExtractorRefresh(t *testing.T) {
	t.Run("writes", testRefreshWrites)
	t.Run("bloom false positive", testRefreshBloomHit)
	t.Run("fold drops every build", testFoldDropsKept)
	t.Run("union replaces its parts", testKeepUnion)
	t.Run("keep bound", testKeepBound)
	t.Run("tiny components", testKeepTiny)
}

// testRefreshWrites: a write inside an island, a re-rate or a new edge,
// is refreshed: no fresh extraction and an answer equal to the reference.
// A write joining two islands, a journal the writes overflowed and a fold
// each rebuild.
func testRefreshWrites(t *testing.T) {
	const users, items = 40, 30 // 70 members per island
	g := islandGraph(t, 2, users, items)
	ext := NewSubgraphExtractor(g)
	a, b := []int{g.UserNode(0)}, []int{g.UserNode(users + 4), g.ItemNode(items + 6)}
	step := func(what string, seeds []int, wantRebuild bool) {
		t.Helper()
		sg, rebuilt, err := extractByID(ext, seeds, 0)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rebuilt != wantRebuild {
			t.Fatalf("%s: rebuilt %v, want %v", what, rebuilt, wantRebuild)
		}
		requireMatchesRefByID(t, g, sg, seeds, 0)
		if sg, err = ext.Extract(seeds, 0); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireMatchesRef(t, g, sg, seeds, 0)
	}
	write := func(u, i int, w float64) {
		t.Helper()
		if _, err := g.UpsertRating(u, i, w); err != nil {
			t.Fatal(err)
		}
	}
	step("build a", a, true)
	step("build b", b, true)
	write(1, 1, 1.7) // a re-rate: user 1 rates items 1, 2 and 4
	step("a re-rate in a", a, false)
	write(0, 2, 2.9) // new edges: user 0 rates items 0, 1 and 3
	write(0, 5, 0.6) // user 0 journaled twice, before rows it sorts under
	write(3, 2, 0.7)
	step("new edges in a", []int{g.UserNode(3)}, false)
	step("b after writes to a", b, false)
	write(users+5, items+8, 1.3) // b: user 5 of b rates its items 5, 6 and 8
	write(1, 1, 0.4)
	step("a after writes to both", a, false)
	step("b refreshed too", b, false)

	write(0, items+6, 1.1) // joins a and b
	step("a after a joining write", a, true)
	step("b inside the union", b, false)
	for k := 0; k < journalCap/2; k++ {
		write(users+5, items+6, float64(1+k%5))
	}
	step("after the journal overflowed", a, true)
	write(2, 3, 3.3)
	g.Compact()
	step("after a fold", b, true)
}

// testFoldDropsKept: a fold swaps the storage key, so no kept build can
// be served again; the first extraction after it drops them all, the
// other island's too.
func testFoldDropsKept(t *testing.T) {
	const users, items = 40, 30
	g := islandGraph(t, 2, users, items)
	ext := NewSubgraphExtractor(g)
	for _, u := range []int{0, users} {
		if _, err := ext.ExtractByID([]int{g.UserNode(u)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.UpsertRating(1, 1, 2.2); err != nil {
		t.Fatal(err)
	}
	g.Compact()
	seeds := []int{g.UserNode(0)}
	sg, rebuilt, err := extractByID(ext, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("a build read through the old storage key was served")
	}
	requireMatchesRefByID(t, g, sg, seeds, 0)
	if len(ext.kept) != 1 || ext.kept[0].key != g.storageKey() {
		t.Fatalf("%d builds kept after the fold, want only the one just built", len(ext.kept))
	}
}

// testRefreshBloomHit: a write to another island whose node the
// kept island's bloom reports (a false positive, ≈ 3 % of foreign nodes
// at 500 members) makes CheckFingerprint stale, and refresh finds no
// journaled member: the build is reused without a row read (its CSR view
// is the same), its watermark advanced to the head.
func testRefreshBloomHit(t *testing.T) {
	const users, items = 300, 200 // 500 members per island
	g := islandGraph(t, 2, users, items)
	ext := NewSubgraphExtractor(g)
	seeds := []int{g.UserNode(7)}
	if _, err := ext.ExtractByID(seeds, 0); err != nil {
		t.Fatal(err)
	}
	kept := ext.kept[0]
	hit := -1
	for u := users; u < 2*users && hit < 0; u++ {
		if kept.fp.MayContain(g.UserNode(u)) {
			hit = u
		}
	}
	if hit < 0 {
		t.Fatal("fixture: no user of the other island is a bloom false positive")
	}
	items0, _ := g.UserItems(hit)
	if _, err := g.UpsertRating(hit, items0[0], 4.2); err != nil {
		t.Fatal(err)
	}
	if st := g.CheckFingerprint(&kept.fp); st != FingerprintStale {
		t.Fatalf("a write to bloom hit %d leaves the kept build %v, want Stale", hit, st)
	}
	adj := kept.sub.adj
	sg, rebuilt, err := extractByID(ext, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt || sg.adj != adj || kept.fp.Gen != g.WriteGen() {
		t.Fatalf("rebuilt %v, CSR rebuilt %v, watermark %d of %d: want a reuse reading no row", rebuilt, sg.adj != adj, kept.fp.Gen, g.WriteGen())
	}
	requireMatchesRefByID(t, g, sg, seeds, 0)
}

// keptWithinBound fails unless the kept builds' charges fit in the
// graph's node count, or one build is kept alone.
func keptWithinBound(t *testing.T, what string, ext *SubgraphExtractor) {
	t.Helper()
	total := 0
	for _, k := range ext.kept {
		total += max(k.sub.Len(), fpWords)
	}
	if len(ext.kept) > 1 && total > ext.Graph().NumNodes() {
		t.Fatalf("%s: %d kept builds charge %d, more than the %d nodes", what, len(ext.kept), total, ext.Graph().NumNodes())
	}
}

// testKeepUnion: a write joining the second and third of three kept
// islands makes the third's next read build their union, which replaces
// both parts; the union then serves the second's seeds without a BFS, and
// the first is still kept. A fourth island, never read, leaves the bound
// room for all of them.
func testKeepUnion(t *testing.T) {
	const users, items = 40, 30
	g := islandGraph(t, 4, users, items)
	ext := NewSubgraphExtractor(g)
	a, b, c := []int{g.UserNode(0)}, []int{g.UserNode(users)}, []int{g.UserNode(2 * users)}
	for _, seeds := range [][]int{a, b, c, a} {
		if _, err := ext.ExtractByID(seeds, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.UpsertRating(users, 2*items, 1.1); err != nil { // b's first user rates c's first item
		t.Fatal(err)
	}
	for _, s := range []struct {
		what        string
		seeds       []int
		wantRebuild bool
		wantLen     int
	}{
		{"c after the joining write", c, true, 2 * (users + items)},
		{"b, served by the union", b, false, 2 * (users + items)},
		{"a, still kept", a, false, users + items},
	} {
		sg, rebuilt, err := extractByID(ext, s.seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt != s.wantRebuild || sg.Len() != s.wantLen {
			t.Fatalf("%s: rebuilt %v with %d members, want %v with %d", s.what, rebuilt, sg.Len(), s.wantRebuild, s.wantLen)
		}
		requireMatchesRefByID(t, g, sg, s.seeds, 0)
		if len(ext.kept) != 2 {
			t.Fatalf("%s: %d builds kept, want the union and a", s.what, len(ext.kept))
		}
	}
}

// testKeepBound: three islands of 70 members and one admitted pair, 212
// nodes. The islands fill 210 of the bound; the pair is charged fpWords,
// so keeping it evicts the least recently served island — the second,
// not the first, which was served again since.
func testKeepBound(t *testing.T) {
	const users, items = 40, 30
	g := islandGraph(t, 3, users, items)
	if _, err := g.UpsertRatingAutoGrow(3*users, 3*items, 2.5); err != nil {
		t.Fatal(err)
	}
	ext := NewSubgraphExtractor(g)
	a, b, c := []int{g.UserNode(0)}, []int{g.UserNode(users)}, []int{g.UserNode(2 * users)}
	pair := []int{g.UserNode(3 * users)}
	for _, s := range []struct {
		what        string
		seeds       []int
		wantRebuild bool
	}{
		{"build a", a, true},
		{"build b", b, true},
		{"build c", c, true},
		{"a again", a, false},
		{"the admitted pair", pair, true},
		{"a, still kept", a, false},
		{"c, still kept", c, false},
		{"b, evicted", b, true},
	} {
		sg, rebuilt, err := extractByID(ext, s.seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt != s.wantRebuild {
			t.Fatalf("%s: rebuilt %v, want %v", s.what, rebuilt, s.wantRebuild)
		}
		requireMatchesRefByID(t, g, sg, s.seeds, 0)
		keptWithinBound(t, s.what, ext)
	}
}

// testKeepTiny: 150 components of 7 members each, 1,050 nodes, read in
// turn. Each build is charged fpWords, so at most 1050/fpWords = 16 are
// kept, not one per component.
func testKeepTiny(t *testing.T) {
	const islands, users, items = 150, 3, 4
	g := islandGraph(t, islands, users, items)
	ext := NewSubgraphExtractor(g)
	for round := 0; round < 2; round++ {
		for k := 0; k < islands; k++ {
			seeds := []int{g.UserNode(k * users)}
			sg, err := ext.ExtractByID(seeds, 0)
			if err != nil {
				t.Fatal(err)
			}
			if k%37 == 0 {
				requireMatchesRefByID(t, g, sg, seeds, 0)
			}
			keptWithinBound(t, "tiny components", ext)
			if limit := g.NumNodes() / fpWords; len(ext.kept) > limit {
				t.Fatalf("%d builds kept, want at most %d", len(ext.kept), limit)
			}
		}
	}
}
