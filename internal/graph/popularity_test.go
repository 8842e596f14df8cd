// The memoised ItemPopularity against a naive recount: every mutation
// that can change a rater count must move the memo's key.

package graph

import (
	"slices"
	"sync"
	"testing"
)

// recountPopularity counts every item's raters from the view's live rows.
func recountPopularity(g *Bipartite) []int {
	pop := make([]int, g.NumItems())
	for i := range pop {
		nodes, _ := g.Neighbors(g.ItemNode(i))
		pop[i] = len(nodes)
	}
	return pop
}

// TestItemPopularityMemoTracksWrites reads the vector before every step
// (so each step starts from a warm memo) and compares it with the recount
// after: on the writing view, on a sibling sharing its base, and across
// folds and an epoch rewind.
func TestItemPopularityMemoTracksWrites(t *testing.T) {
	views := ShareViews(sharedTestGraph(t), 2)
	g, sib := views[0], views[1]
	check := func(step string) {
		t.Helper()
		for name, v := range map[string]*Bipartite{"view 0": g, "view 1": sib} {
			got, want := v.ItemPopularity(), recountPopularity(v)
			if !slices.Equal(got, want) {
				t.Fatalf("after %s, %s: ItemPopularity() = %v, recount %v", step, name, got, want)
			}
			if again := v.ItemPopularity(); &again[0] != &got[0] {
				t.Fatalf("after %s, %s: two reads with no write between them returned different vectors", step, name)
			}
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
	_, err = sib.UpsertRatingAutoGrow(5, 6, 2) // admits user 5 and item 6 through the sibling
	must(err)
	check("a sibling view's admission of a user and an item")

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
	sib.AddItem()
	check("AddItem on the sibling")

	// The fold publishes the sibling's pending rows (user 5 — item 6, and
	// the write below) in the base view 0 counts from; view 0's own write
	// generation does not move.
	_, err = sib.UpsertRating(3, 0, 1)
	must(err)
	check("a sibling's write before the fold")
	gen, item0 := g.WriteGen(), g.ItemPopularity()[0]
	g.Compact()
	if g.WriteGen() != gen {
		t.Fatalf("the fold moved view 0's write generation %d -> %d", gen, g.WriteGen())
	}
	check("group fold after a sibling's writes")
	if p := g.ItemPopularity(); p[0] != item0+1 || p[6] != 1 {
		t.Fatalf("after the fold view 0 counts %d raters of item 0 and %d of item 6, want %d and 1", p[0], p[6], item0+1)
	}
	g.Compact()
	check("Compact with nothing pending")

	// An epoch set back and then advanced to the value it had when the
	// memo was taken (no read in between) must not revive the memo.
	epoch := g.Epoch()
	g.RestoreEpoch(epoch - 1)
	must(g.AddRating(0, 1, 2))
	if g.Epoch() != epoch {
		t.Fatalf("epoch %d after rewind and one write, want %d", g.Epoch(), epoch)
	}
	check("RestoreEpoch to an earlier value, then a write that brings the epoch back")
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
