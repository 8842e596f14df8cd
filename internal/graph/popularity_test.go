// The memoised ItemPopularity against a naive recount: every mutation
// that can change a rater count must move the memo's key.

package graph

import (
	"slices"
	"sync"
	"testing"
)

// recountPopularity counts every item's raters from the graph's live rows.
func recountPopularity(g *Bipartite) []int {
	pop := make([]int, g.NumItems())
	for i := range pop {
		nodes, _ := g.Neighbors(g.ItemNode(i))
		pop[i] = len(nodes)
	}
	return pop
}

// popularityTestGraph is a small fixture: 4 users, 5 items, item 3 unrated.
func popularityTestGraph(t *testing.T) *Bipartite {
	t.Helper()
	g, err := FromRatings(4, 5, []Rating{
		{User: 0, Item: 0, Weight: 3},
		{User: 0, Item: 2, Weight: 1},
		{User: 1, Item: 1, Weight: 5},
		{User: 2, Item: 2, Weight: 2},
		{User: 3, Item: 4, Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestItemPopularityMemoTracksWrites reads the vector before every step
// (so each step starts from a warm memo) and compares it with the recount
// after: across every write path, admissions and folds.
func TestItemPopularityMemoTracksWrites(t *testing.T) {
	g := popularityTestGraph(t)
	check := func(step string) {
		t.Helper()
		got, want := g.ItemPopularity(), recountPopularity(g)
		if !slices.Equal(got, want) {
			t.Fatalf("after %s: ItemPopularity() = %v, recount %v", step, got, want)
		}
		if again := g.ItemPopularity(); &again[0] != &got[0] {
			t.Fatalf("after %s: two reads with no write between them returned different vectors", step)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check("construction")

	must(g.AddRating(1, 0, 2))
	check("AddRating")
	must(g.UpdateRating(1, 0, 4))
	check("UpdateRating (count unchanged)")
	_, err := g.UpsertRating(1, 3, 1)
	must(err)
	check("UpsertRating of a new edge")

	_, err = g.UpsertRatingAutoGrow(4, 0, 3) // admits user 4
	must(err)
	check("auto-grow admission of a user")
	_, err = g.UpsertRatingAutoGrow(0, 5, 3) // admits item 5
	must(err)
	check("auto-grow admission of an item")
	_, err = g.UpsertRatingAutoGrow(5, 6, 2) // admits user 5 and item 6
	must(err)
	check("auto-grow admission of a user and an item")

	for _, r := range g.UpsertRatingsBatch([]WriteOp{
		{User: 2, Item: 0, Score: 5},
		{User: 2, Item: 2, Score: 1},                 // re-rate
		{User: 6, Item: 7, Score: 2, AutoGrow: true}, // admits both
	}) {
		must(r.Err)
	}
	check("UpsertRatingsBatch")

	g.AddUser()
	check("AddUser")
	g.AddItem()
	check("AddItem")

	// The fold republishes the pending rows as the base: the counts stay,
	// the write generation does not move, the storage key does.
	_, err = g.UpsertRating(3, 0, 1)
	must(err)
	check("a write before the fold")
	gen, before := g.WriteGen(), slices.Clone(g.ItemPopularity())
	g.Compact()
	if g.WriteGen() != gen {
		t.Fatalf("the fold moved the write generation %d -> %d", gen, g.WriteGen())
	}
	check("fold")
	if p := g.ItemPopularity(); !slices.Equal(p, before) {
		t.Fatalf("the fold changed the counts: %v, was %v", p, before)
	}
	g.Compact()
	check("Compact with nothing pending")
}

// TestConcurrentItemPopularityMemo: readers take the memoised vector
// while one writer adds edges, admits nodes and folds. Edges are only ever
// added, so no reader may see an item's count fall or the vector shrink,
// and a vector once returned never changes. Run under -race.
func TestConcurrentItemPopularityMemo(t *testing.T) {
	g := growthSeedGraph(t)
	const writes = 600
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 0; k < writes; k++ {
			if _, err := g.UpsertRatingAutoGrow(k%40, (k*7)%50, 1+float64(k%5)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if k%97 == 0 {
				g.Compact()
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held, heldCopy []int
			for {
				select {
				case <-stop:
					return
				default:
				}
				pop := g.ItemPopularity()
				if len(pop) < len(held) {
					t.Errorf("popularity vector shrank %d -> %d", len(held), len(pop))
					return
				}
				for i, p := range held {
					if pop[i] < p {
						t.Errorf("item %d: count fell %d -> %d", i, p, pop[i])
						return
					}
				}
				if !slices.Equal(held, heldCopy) {
					t.Errorf("a returned vector changed after the fact: %v, was %v", held, heldCopy)
					return
				}
				held, heldCopy = pop, slices.Clone(pop)
			}
		}()
	}
	wg.Wait()

	if got, want := g.ItemPopularity(), recountPopularity(g); !slices.Equal(got, want) {
		t.Fatalf("after the writer stopped: ItemPopularity() = %v, recount %v", got, want)
	}
}
