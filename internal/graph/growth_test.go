// Tests for the open-universe growth path: AddUser/AddItem node
// admissions, UpsertRatingAutoGrow, snapshot round-trips, and the
// stability guarantees the serving layer depends on (node ids and row
// snapshots surviving growth).

package graph

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// growthSeedGraph builds the standard 3-user/4-item base used below.
func growthSeedGraph(t *testing.T) *Bipartite {
	t.Helper()
	g, err := FromRatings(3, 4, []Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 0, Item: 1, Weight: 3},
		{User: 1, Item: 1, Weight: 4}, {User: 1, Item: 2, Weight: 2},
		{User: 2, Item: 3, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddUserAddItem(t *testing.T) {
	g := growthSeedGraph(t)
	if got := g.Epoch(); got != 0 {
		t.Fatalf("fresh epoch %d", got)
	}
	u := g.AddUser()
	if u != 3 {
		t.Fatalf("AddUser index %d, want 3", u)
	}
	i := g.AddItem()
	if i != 4 {
		t.Fatalf("AddItem index %d, want 4", i)
	}
	if g.NumUsers() != 4 || g.NumItems() != 5 || g.NumNodes() != 9 {
		t.Fatalf("universe %d users / %d items / %d nodes", g.NumUsers(), g.NumItems(), g.NumNodes())
	}
	if g.BaseNumUsers() != 3 || g.BaseNumItems() != 4 {
		t.Fatalf("base universe moved: %d/%d", g.BaseNumUsers(), g.BaseNumItems())
	}
	// Every admission is an accepted write.
	if got := g.Epoch(); got != 2 {
		t.Fatalf("epoch %d after two admissions, want 2", got)
	}
	// Grown nodes append at the end of the node space; base ids unchanged.
	if n := g.UserNode(3); n != 7 {
		t.Fatalf("grown user node %d, want 7", n)
	}
	if n := g.ItemNode(4); n != 8 {
		t.Fatalf("grown item node %d, want 8", n)
	}
	if g.UserNode(0) != 0 || g.ItemNode(0) != 3 {
		t.Fatal("base node ids moved")
	}
	// Kind and reverse mapping.
	if !g.IsUserNode(7) || g.IsItemNode(7) || !g.IsItemNode(8) || g.IsUserNode(8) {
		t.Fatal("grown node kinds wrong")
	}
	if g.UserIndex(7) != 3 || g.ItemIndex(8) != 4 {
		t.Fatalf("reverse mapping: user %d item %d", g.UserIndex(7), g.ItemIndex(8))
	}
	// New nodes are isolated until rated.
	if d := g.Degree(7); d != 0 {
		t.Fatalf("new user degree %v", d)
	}
	if nbrs, _ := g.Neighbors(8); len(nbrs) != 0 {
		t.Fatalf("new item has neighbors %v", nbrs)
	}
	if pop := g.ItemPopularity(); len(pop) != 5 || pop[4] != 0 {
		t.Fatalf("popularity %v", pop)
	}
	if degs := g.Degrees(); len(degs) != 9 || degs[7] != 0 || degs[8] != 0 {
		t.Fatalf("degrees %v", degs)
	}
}

func TestUpsertRatingAutoGrow(t *testing.T) {
	g := growthSeedGraph(t)
	// Unseen user AND unseen item in one write: both admitted, edge lands.
	added, err := g.UpsertRatingAutoGrow(5, 6, 4)
	if err != nil || !added {
		t.Fatalf("auto-grow upsert: added=%v err=%v", added, err)
	}
	if g.NumUsers() != 6 || g.NumItems() != 7 {
		t.Fatalf("universe %d/%d, want 6/7 (dense ids)", g.NumUsers(), g.NumItems())
	}
	// 3 new users + 3 new items + 1 edge write = 7 epoch bumps.
	if got := g.Epoch(); got != 7 {
		t.Fatalf("epoch %d, want 7", got)
	}
	if w := g.Weight(g.UserNode(5), g.ItemNode(6)); w != 4 {
		t.Fatalf("grown edge weight %v", w)
	}
	if w := g.Weight(g.ItemNode(6), g.UserNode(5)); w != 4 {
		t.Fatalf("grown edge not symmetric: %v", w)
	}
	if d := g.Degree(g.UserNode(5)); d != 4 {
		t.Fatalf("grown user degree %v", d)
	}
	// Intermediate admitted ids exist and are writable.
	if _, err := g.UpsertRatingAutoGrow(4, 5, 2); err != nil {
		t.Fatalf("write to intermediate grown ids: %v", err)
	}
	// Re-rate through the auto-grow path behaves like UpsertRating.
	added, err = g.UpsertRatingAutoGrow(5, 6, 5)
	if err != nil || added {
		t.Fatalf("re-rate: added=%v err=%v", added, err)
	}
	// In-universe writes still work through the same path.
	if _, err := g.UpsertRatingAutoGrow(0, 3, 1); err != nil {
		t.Fatal(err)
	}
}

func TestUpsertRatingAutoGrowRejects(t *testing.T) {
	g := growthSeedGraph(t)
	cases := []struct{ u, i int }{
		{-1, 0},                     // negative user
		{0, -2},                     // negative item
		{3 + MaxDenseAdmissions, 0}, // absurd user jump
		{0, 4 + MaxDenseAdmissions}, // absurd item jump
		{1 << 40, 1 << 40},          // astronomically absurd
	}
	for _, c := range cases {
		_, err := g.UpsertRatingAutoGrow(c.u, c.i, 3)
		if err == nil {
			t.Fatalf("UpsertRatingAutoGrow(%d,%d) accepted", c.u, c.i)
		}
		if !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("UpsertRatingAutoGrow(%d,%d) error %q lacks 'out of range'", c.u, c.i, err)
		}
	}
	// Invalid weights still rejected, and must not grow the universe.
	if _, err := g.UpsertRatingAutoGrow(9, 9, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := g.UpsertRatingAutoGrow(9, 9, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if g.NumUsers() != 3 || g.NumItems() != 4 || g.Epoch() != 0 {
		t.Fatalf("rejected writes changed the graph: %d/%d epoch %d",
			g.NumUsers(), g.NumItems(), g.Epoch())
	}
}

// TestGrowthRowSnapshotsStable: row slices handed out before a growth stay
// valid and untouched — the copy-on-write contract extends to admissions.
func TestGrowthRowSnapshotsStable(t *testing.T) {
	g := growthSeedGraph(t)
	nbrsBefore, wsBefore := g.Neighbors(g.UserNode(0))
	nodesBefore := append([]int(nil), nbrsBefore...)
	weightsBefore := append([]float64(nil), wsBefore...)

	if _, err := g.UpsertRatingAutoGrow(10, 12, 3); err != nil {
		t.Fatal(err)
	}
	g.Compact()
	if _, err := g.UpsertRatingAutoGrow(0, 12, 2); err != nil {
		t.Fatal(err) // write to user 0 itself, post-compaction
	}
	for k := range nbrsBefore {
		if nbrsBefore[k] != nodesBefore[k] || wsBefore[k] != weightsBefore[k] {
			t.Fatal("pre-growth row snapshot mutated")
		}
	}
}

// TestGrowthCompact: compaction folds grown nodes into the CSR (empty rows
// included), clears the overlay, and leaves every live quantity unchanged.
func TestGrowthCompact(t *testing.T) {
	g := growthSeedGraph(t)
	if _, err := g.UpsertRatingAutoGrow(7, 9, 2.5); err != nil {
		t.Fatal(err)
	}
	g.AddItem() // isolated grown item, never rated
	edges, weight, epoch := g.NumEdges(), g.TotalWeight(), g.Epoch()
	pop := g.ItemPopularity()

	g.Compact()
	if g.PendingWrites() != 0 {
		t.Fatalf("pending writes %d after Compact", g.PendingWrites())
	}
	if g.Epoch() != epoch {
		t.Fatal("Compact moved the epoch")
	}
	if g.NumEdges() != edges || g.TotalWeight() != weight {
		t.Fatal("Compact changed edge content")
	}
	if r, _ := g.Adjacency().Dims(); r != g.NumNodes() {
		t.Fatalf("compacted CSR has %d rows for %d nodes", r, g.NumNodes())
	}
	pop2 := g.ItemPopularity()
	for i := range pop {
		if pop[i] != pop2[i] {
			t.Fatalf("popularity[%d] changed across Compact: %d -> %d", i, pop[i], pop2[i])
		}
	}
	// The compacted graph keeps growing.
	if _, err := g.UpsertRatingAutoGrow(8, 11, 1); err != nil {
		t.Fatal(err)
	}
	if w := g.Weight(g.UserNode(8), g.ItemNode(11)); w != 1 {
		t.Fatalf("post-compact grown edge weight %v", w)
	}
}

// TestGrowthExtractor: a SubgraphExtractor built before any growth keeps
// extracting correct subgraphs as the universe grows under it.
func TestGrowthExtractor(t *testing.T) {
	g := growthSeedGraph(t)
	ext := NewSubgraphExtractor(g)
	if _, err := ext.Extract([]int{g.UserNode(0)}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpsertRatingAutoGrow(3, 1, 5); err != nil { // new user rates base item 1
		t.Fatal(err)
	}
	sg, err := ext.Extract([]int{g.UserNode(3)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// New user connects through item 1 to users 0 and 1 and their items.
	if l, ok := sg.LocalNode(g.UserNode(3)); !ok || l != 0 {
		t.Fatalf("seed local id (%d,%v)", l, ok)
	}
	if sg.Len() < 4 {
		t.Fatalf("subgraph of grown user too small: %d nodes", sg.Len())
	}
	if _, ok := sg.LocalNode(g.ItemNode(1)); !ok {
		t.Fatal("rated item missing from grown user's subgraph")
	}
	// Degrees must include the new edge.
	l, _ := sg.LocalNode(g.ItemNode(1))
	want := g.Degree(g.ItemNode(1))
	if got := sg.Degrees()[l]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("local degree %v, want %v", got, want)
	}
}

// TestSnapshotRoundTrip: write -> save -> load preserves every edge and
// the epoch, with pending overlay writes and grown nodes included.
func TestSnapshotRoundTrip(t *testing.T) {
	g := growthSeedGraph(t)
	if _, err := g.UpsertRatingAutoGrow(4, 6, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.UpdateRating(0, 0, 1.5); err != nil {
		t.Fatal(err)
	}
	if g.PendingWrites() == 0 {
		t.Fatal("test needs pending overlay writes")
	}
	snap := g.Snapshot()
	if snap.NumUsers != 5 || snap.NumItems != 7 {
		t.Fatalf("snapshot universe %d/%d", snap.NumUsers, snap.NumItems)
	}
	if snap.Epoch != g.Epoch() {
		t.Fatalf("snapshot epoch %d, graph %d", snap.Epoch, g.Epoch())
	}
	g2, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Epoch() != g.Epoch() {
		t.Fatalf("reloaded epoch %d, want %d", g2.Epoch(), g.Epoch())
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("reloaded edges %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	if math.Abs(g2.TotalWeight()-g.TotalWeight()) > 1e-12 {
		t.Fatalf("reloaded weight %v, want %v", g2.TotalWeight(), g.TotalWeight())
	}
	for u := 0; u < g.NumUsers(); u++ {
		items, ws := g.UserItems(u)
		for k, i := range items {
			if got := g2.Weight(g2.UserNode(u), g2.ItemNode(i)); got != ws[k] {
				t.Fatalf("edge (%d,%d) = %v after round-trip, want %v", u, i, got, ws[k])
			}
		}
		if g2.Degree(g2.UserNode(u)) != g.Degree(g.UserNode(u)) {
			t.Fatalf("user %d degree diverged", u)
		}
	}
}

// TestConcurrentGrowth: one writer grows the universe (admissions + edge
// writes + compactions) while readers extract subgraphs and walk every
// read surface. Run under -race.
func TestConcurrentGrowth(t *testing.T) {
	g := growthSeedGraph(t)
	g.SetCompactThreshold(16)
	const writes = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		defer close(stop)
		for k := 0; k < writes; k++ {
			u, i := k%50, (k*7)%60
			if _, err := g.UpsertRatingAutoGrow(u, i, 1+float64(k%5)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if k%64 == 0 {
				g.Compact()
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			ext := NewSubgraphExtractor(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				nu := g.NumUsers()
				sg, err := ext.Extract([]int{g.UserNode(seed % nu)}, 10)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for l := 0; l < sg.Len(); l++ {
					sg.IsItemLocal(l)
				}
				g.Degrees()
				g.ItemPopularity()
				g.NumEdges()
			}
		}(r)
	}
	wg.Wait()

	if g.NumUsers() != 50 || g.NumItems() != 60 {
		t.Fatalf("final universe %d/%d, want 50/60", g.NumUsers(), g.NumItems())
	}
}
