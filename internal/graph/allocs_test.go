//go:build !race

package graph

import (
	"runtime"
	"testing"
)

// TestExtractAllocs holds the extraction and revalidation read path at its
// allocation counts once warm. Extract with the Subgraph's Fingerprint
// costs only the CSR views it hands out: one for the seed-prefixed layout
// of a kept whole component, two when a truncated BFS rebuilds. After a
// write elsewhere, CheckFingerprint scans the journal through MayContain
// and allocates nothing: it runs inside every cache lookup. After a write
// inside the kept component, ExtractByID refreshes it at one allocation:
// the view of the rebuilt CSR. Compiled out under -race, whose
// instrumentation allocates.
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
		if kept := len(e.kept) > 0; kept != c.kept {
			t.Fatalf("%s: extractor kept = %v", c.name, kept)
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

	// The refresh path: a re-rate, or a new edge, inside the kept island
	// before each measured call. The refresh costs the CSR view (and now
	// and then its arrays' append growth, under one per call).
	if _, err := e.ExtractByID(seeds, 0); err != nil {
		t.Fatal(err)
	}
	var unrated [][2]int
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if g.Weight(g.UserNode(u), g.ItemNode(i)) == 0 {
				unrated = append(unrated, [2]int{u, i})
			}
		}
	}
	k := 0
	for _, c := range []struct {
		name  string
		write func() error
	}{
		{"re-rate", func() error { k++; return g.UpdateRating(3, 5, float64(1+k%5)) }},
		{"new edge", func() error { k++; return g.AddRating(unrated[k][0], unrated[k][1], 2.5) }},
	} {
		write := func() {
			if err := c.write(); err != nil {
				t.Fatal(err)
			}
		}
		query := func() {
			if _, err := e.ExtractByID(seeds, 0); err != nil {
				t.Fatal(err)
			}
		}
		for warm := 0; warm < 3; warm++ {
			write()
			query()
		}
		if allocs := allocsAfter(50, write, query); allocs > 1 {
			t.Fatalf("refresh after a %s costs %v allocations, want at most 1", c.name, allocs)
		}
		write()
		if _, rebuilt, err := extractByID(e, seeds, 0); err != nil || rebuilt {
			t.Fatalf("%s: the write inside the kept island rebuilt it (%v)", c.name, err)
		}
	}
}

// allocsAfter is testing.AllocsPerRun for f alone: prepare runs before
// each of the runs calls, unmeasured.
func allocsAfter(runs int, prepare, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	total := uint64(0)
	for k := 0; k < runs; k++ {
		prepare()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total / uint64(runs)) // whole allocations, as AllocsPerRun reports
}
