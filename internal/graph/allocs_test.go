//go:build !race

package graph

import "testing"

// TestExtractAllocs holds the extraction and revalidation read path at its
// allocation counts once warm. Extract with the Subgraph's Fingerprint
// costs only the CSR views it hands out: one for the seed-prefixed layout
// of a kept whole component, two when a truncated BFS rebuilds. After a
// write elsewhere, CheckFingerprint scans the journal through MayContain
// and allocates nothing: it runs inside every cache lookup. Compiled out
// under -race, whose instrumentation allocates.
func TestExtractAllocs(t *testing.T) {
	// Two islands of 20 users and 30 items, each one component: user u
	// rates 6 consecutive items of its island.
	const users, items = 20, 30
	b := NewBuilder(2*users, 2*items)
	for u := 0; u < 2*users; u++ {
		for k := 0; k < 6; k++ {
			i := (u/users)*items + (u%users*items/users+k)%items
			if err := b.AddRating(u, i, float64(1+k%5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	e := NewSubgraphExtractor(g)
	// User 3 and two of its items, in descending item order so that
	// sortSeedRun has runs to sort.
	seeds := []int{g.ItemNode(8), g.ItemNode(5), g.UserNode(3)}
	var fp Fingerprint
	for _, c := range []struct {
		name     string
		maxItems int
		kept     bool
		bound    float64
	}{
		{"whole component (kept)", 0, true, 1},
		{"truncated (rebuilt)", 5, false, 2},
	} {
		query := func() {
			sg, err := e.Extract(seeds, c.maxItems)
			if err != nil {
				t.Fatal(err)
			}
			sg.Fingerprint(g.WriteGen(), &fp)
		}
		query() // warm: scratch capacities
		if e.kept != c.kept {
			t.Fatalf("%s: extractor kept = %v", c.name, e.kept)
		}
		if allocs := testing.AllocsPerRun(100, query); allocs > c.bound {
			t.Fatalf("%s: Extract and Fingerprint cost %v allocations, want at most %v", c.name, allocs, c.bound)
		}
	}

	if _, err := g.UpsertRating(users+1, items+1, 3); err != nil { // the other island
		t.Fatal(err)
	}
	if g.WriteGen() == fp.Gen {
		t.Fatal("the write did not advance the journal")
	}
	if st := g.CheckFingerprint(&fp); st != FingerprintFresh {
		t.Fatalf("a write to the other island makes the fingerprint %v, want Fresh", st)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.CheckFingerprint(&fp) }); allocs != 0 {
		t.Fatalf("CheckFingerprint costs %v allocations, want 0", allocs)
	}
}
