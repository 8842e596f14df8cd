// The engine walks a subgraph numbered by original id, with the seeds as a
// mask, and keeps a whole component in each pooled scratch for the next
// user inside it (graph.SubgraphExtractor.ExtractByID). These tests hold
// that path to the seeds-first layout the benchmark's stage replay walks
// (bit for bit), and the kept component to a fresh engine under writes,
// folds and concurrency.

package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"longtailrec/internal/graph"
	"longtailrec/internal/markov"
)

// prefixedWalkScores scores user u's subgraph items the way the stage
// replay does: Extract's seeds-first subgraph, the seeds masked as local
// ids 0..s-1, the entry costs of spec, the fused kernel.
func prefixedWalkScores(t *testing.T, g *graph.Bipartite, spec walkSpec, opts WalkOptions, u int) map[int]float64 {
	t.Helper()
	seeds, _ := g.Neighbors(g.UserNode(u))
	if spec.seedUser {
		seeds = []int{g.UserNode(u)}
	}
	sg, err := graph.ExtractSubgraph(g, seeds, opts.MaxSubgraphItems)
	if err != nil {
		t.Fatal(err)
	}
	var ch markov.Chain
	if err := ch.Reset(sg.Adjacency(), sg.Degrees()); err != nil {
		t.Fatal(err)
	}
	var scr markov.ChainScratch
	scr.Resize(sg.Len())
	a, _ := sg.Blocks()
	for l := 0; l < a; l++ {
		scr.Mask[l] = true
	}
	var enter []float64
	if spec.costed {
		enter = scr.Enter
		for l := range enter {
			v := sg.OriginalNode(l)
			switch {
			case g.IsUserNode(v) && g.UserIndex(v) < len(spec.userEnter):
				enter[l] = spec.userEnter[g.UserIndex(v)]
			case g.IsItemNode(v) && spec.itemEnter == nil:
				enter[l] = spec.userCost
			case g.IsItemNode(v) && g.ItemIndex(v) < len(spec.itemEnter):
				enter[l] = spec.itemEnter[g.ItemIndex(v)]
			default:
				enter[l] = spec.enterFloor
			}
		}
	}
	times, err := ch.AbsorbingCostFused(&scr, enter, opts.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]float64{}
	for l, tm := range times {
		if v := sg.OriginalNode(l); g.IsItemNode(v) && !math.IsInf(tm, 1) {
			out[g.ItemIndex(v)] = -tm
		}
	}
	return out
}

// walkFixture builds a graph from a rating generator.
func walkFixture(t *testing.T, users, items int, rate func(b *graph.Builder)) *graph.Bipartite {
	t.Helper()
	b := graph.NewBuilder(users, items)
	rate(b)
	return b.Build()
}

// TestWalkScoresMatchSeedPrefixedLayout: HT, AT, AC1, AC2 and AC3 item
// scores through the engine are Float64bits-equal to a walk over Extract's
// seeds-first subgraph, for every user of a one-component graph, a
// clustered graph, a µ-truncated graph, a graph of fractional and
// duplicate-summed weights and a grown universe. The engine's pooled
// scratch keeps a component from user to user, so the comparison covers
// reused and rebuilt subgraphs alike.
func TestWalkScoresMatchSeedPrefixedLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	randomRatings := func(users, items, perUser int, weight func() float64) func(b *graph.Builder) {
		return func(b *graph.Builder) {
			for u := 0; u < users; u++ {
				for k := 0; k < perUser; k++ {
					_ = b.AddRating(u, int(float64(items)*rng.Float64()*rng.Float64()), weight())
				}
			}
		}
	}
	stars := func() float64 { return float64(1 + rng.Intn(5)) }
	fractional := func() float64 { return 0.05 + 3*rng.Float64() }
	clustered := func(b *graph.Builder) {
		for u := 0; u < 60; u++ {
			island := u % 3
			for k := 0; k < 6; k++ {
				_ = b.AddRating(u, 20*island+rng.Intn(20), fractional())
			}
		}
	}
	grown := walkFixture(t, 40, 60, randomRatings(40, 60, 6, fractional))
	for k := 0; k < 30; k++ {
		u, i := rng.Intn(grown.NumUsers()+2), rng.Intn(grown.NumItems()+2)
		if _, err := grown.UpsertRatingAutoGrow(u, i, fractional()); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		g    *graph.Bipartite
		mu   int
	}{
		{"one component", walkFixture(t, 50, 80, randomRatings(50, 80, 8, stars)), 0},
		{"clustered", walkFixture(t, 60, 60, clustered), 0},
		// Fractional weights: a truncated seeds-first build sums its rows
		// around the seed prefix, where the summation order shows.
		{"µ-truncated", walkFixture(t, 50, 80, randomRatings(50, 80, 8, fractional)), 12},
		// Every user rates from a small head several times over: most
		// pairs are summed from duplicates.
		{"fractional duplicates", walkFixture(t, 30, 25, randomRatings(30, 25, 12, fractional)), 0},
		{"grown universe", grown, 0},
	}
	for _, c := range cases {
		g := c.g
		opts := WalkOptions{MaxSubgraphItems: c.mu, Iterations: 15}
		if c.mu == 0 {
			opts.MaxSubgraphItems = 6000
		}
		// Admitted users and items sit past the entropy vectors: the floor.
		ue := make([]float64, g.BaseNumUsers())
		ie := make([]float64, g.BaseNumItems())
		for i := range ue {
			ue[i] = 0.01 + 2*rng.Float64()
		}
		for i := range ie {
			ie[i] = 0.01 + 2*rng.Float64()
		}
		cost := CostOptions{WalkOptions: opts, UserCost: 0.75}
		ac1, err := NewAbsorbingCost(g, "AC1", ue, cost)
		if err != nil {
			t.Fatal(err)
		}
		ue2 := append([]float64(nil), ue...)
		rng.Shuffle(len(ue2), func(a, b int) { ue2[a], ue2[b] = ue2[b], ue2[a] })
		ac2, err := NewAbsorbingCost(g, "AC2", ue2, cost)
		if err != nil {
			t.Fatal(err)
		}
		ac3, err := NewSymmetricAbsorbingCost(g, "AC3", ue, ie, cost)
		if err != nil {
			t.Fatal(err)
		}
		recs := []*walkRecommender{
			&NewHittingTime(g, opts).walkRecommender,
			&NewAbsorbingTime(g, opts).walkRecommender,
			&ac1.walkRecommender, &ac2.walkRecommender, &ac3.walkRecommender,
		}
		truncated := false
		for _, w := range recs {
			// Users in a shuffled order: consecutive queries hop between
			// islands, so the kept component is both reused and replaced.
			for _, u := range rng.Perm(g.NumUsers()) {
				got, err := w.ScoreItemsCompact(u)
				if err != nil {
					continue // cold user
				}
				want := prefixedWalkScores(t, g, w.spec, w.eng.Options(), u)
				if len(got) != len(want) {
					t.Fatalf("%s %s user %d: %d scored items, seeds-first walk %d", c.name, w.algo, u, len(got), len(want))
				}
				for _, is := range got {
					if ws, ok := want[is.Item]; !ok || math.Float64bits(ws) != math.Float64bits(is.Score) {
						t.Fatalf("%s %s user %d item %d: engine %v (%#x), seeds-first walk %v (%#x)", c.name, w.algo, u, is.Item, is.Score, math.Float64bits(is.Score), ws, math.Float64bits(ws))
					}
				}
				truncated = truncated || len(got) < g.NumItems()
			}
		}
		if c.mu > 0 && !truncated {
			t.Fatalf("%s: µ = %d never cut the BFS", c.name, c.mu)
		}
	}
}

// islands builds n disconnected rating islands of the given size each.
func islands(t testing.TB, n, users, items int, seed int64) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n*users, n*items)
	for u := 0; u < n*users; u++ {
		island := u / users
		for k := 0; k < 5; k++ {
			_ = b.AddRating(u, island*items+rng.Intn(items), float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// requireFreshAnswers compares rec's answer for each user, in order, with
// a fresh engine's over the same graph.
func requireFreshAnswers(t *testing.T, what string, rec Recommender, fresh func() Recommender, users []int) {
	t.Helper()
	for _, u := range users {
		got, gerr := rec.Recommend(Request{User: u, K: 8}, nil)
		want, werr := fresh().Recommend(Request{User: u, K: 8}, nil)
		if (gerr != nil) != (werr != nil) || !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("%s: user %d: kept-component answer %+v (%v), fresh engine %+v (%v)", what, u, got.Items, gerr, want.Items, werr)
		}
	}
}

// userRange lists users lo..hi-1.
func userRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for u := lo; u < hi; u++ {
		out = append(out, u)
	}
	return out
}

// TestComponentReuseFollowsFold: a sibling view's write into the component
// a view's engine keeps is invisible to that view until the group fold
// publishes it, and then the view's next walk must see it — the fold moves
// no journal, only the base pointer the kept component is keyed on. Every
// pass reads island 0 only, so its component stays kept across the fold.
func TestComponentReuseFollowsFold(t *testing.T) {
	const users = 12
	views := graph.ShareViews(islands(t, 2, users, 15, 3), 2)
	g := views[0]
	opts := WalkOptions{Iterations: 10}
	at := NewAbsorbingTime(g, opts)
	fresh := func() Recommender { return NewAbsorbingTime(g, opts) }
	island0 := userRange(0, users)
	requireFreshAnswers(t, "before", at, fresh, island0)
	// User 5 (island 0) is homed on the sibling; its new ratings reshape
	// island 0's walks.
	for i := 0; i < 15; i += 3 {
		if _, err := views[1].UpsertRating(5, i, 5); err != nil {
			t.Fatal(err)
		}
	}
	requireFreshAnswers(t, "sibling writes pending", at, fresh, island0)
	views[1].Compact()
	requireFreshAnswers(t, "after the fold", at, fresh, island0)
}

// TestConcurrentComponentReuse runs readers on two islands against one
// engine per algorithm while a writer rewrites one island and folds; once
// the writer has stopped, every answer must equal a fresh engine's. Under
// -race it also checks that a kept component never leaves its scratch.
func TestConcurrentComponentReuse(t *testing.T) {
	const users, items = 15, 20
	g := islands(t, 2, users, items, 5)
	opts := WalkOptions{Iterations: 10}
	ue := make([]float64, g.NumUsers())
	for i := range ue {
		ue[i] = 0.2 + float64(i%7)/5
	}
	ac, err := NewAbsorbingCost(g, "AC1", ue, CostOptions{WalkOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAbsorbingTime(g, opts)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for island := 0; island < 2; island++ {
		for _, rec := range []Recommender{at, ac} {
			wg.Add(1)
			go func(island int, rec Recommender) {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := rec.Recommend(Request{User: island*users + n%users, K: 5}, nil); err != nil {
						t.Errorf("island %d: %v", island, err)
						return
					}
				}
			}(island, rec)
		}
	}
	rng := rand.New(rand.NewSource(6))
	for n := 0; n < 300; n++ {
		if _, err := g.UpsertRating(rng.Intn(users), rng.Intn(items), float64(1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
		if n%100 == 99 {
			g.Compact()
		}
	}
	close(stop)
	wg.Wait()
	all := userRange(0, g.NumUsers())
	requireFreshAnswers(t, "AT", at, func() Recommender { return NewAbsorbingTime(g, opts) }, all)
	requireFreshAnswers(t, "AC1", ac, func() Recommender {
		fresh, err := NewAbsorbingCost(g, "AC1", ue, CostOptions{WalkOptions: opts})
		if err != nil {
			panic(fmt.Sprint(err))
		}
		return fresh
	}, all)
}
