package core

import (
	"errors"
	"math"
	"sort"
	"testing"

	"longtailrec/internal/dataset"
	"longtailrec/internal/entropy"
	"longtailrec/internal/graph"
	"longtailrec/internal/markov"
	"longtailrec/internal/markov/markovtest"
)

// convergedTau is a sweep count at which the walks on this file's small
// graphs are converged to the exact solve (requireOracle checks 1e-9); it
// is experiments.Figure2's τ.
const convergedTau = 1000

// oracleItemTimes returns, per item, the exact absorbing time or cost of
// user u's walk under w's spec — the markovtest dense solve on the whole
// graph, with the Eq. 9 entry costs the spec charges. Items that cannot
// reach the absorbing set get +Inf.
func oracleItemTimes(t testing.TB, w *walkRecommender, u int) []float64 {
	t.Helper()
	g, adj := w.g, w.g.Adjacency()
	absorbing := []int{g.UserNode(u)}
	if !w.spec.seedUser {
		var err error
		if absorbing, err = userItemNodes(g, u); err != nil {
			t.Fatal(err)
		}
	}
	step := make([]float64, g.NumNodes())
	for i := range step {
		step[i] = 1
	}
	if w.spec.costed {
		enter := make([]float64, g.NumNodes())
		for v := range g.NumUsers() {
			enter[g.UserNode(v)] = w.spec.userEnter[v]
		}
		for i := range g.NumItems() {
			enter[g.ItemNode(i)] = w.spec.userCost
			if w.spec.itemEnter != nil {
				enter[g.ItemNode(i)] = w.spec.itemEnter[i]
			}
		}
		chain, err := markov.NewChain(adj)
		if err != nil {
			t.Fatal(err)
		}
		step = chain.StepCosts(enter)
	}
	times, err := markovtest.AbsorbingCost(adj, absorbing, step)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, g.NumItems())
	for i := range out {
		out[i] = times[g.ItemNode(i)]
	}
	return out
}

// requireOracle checks that w's scores for user u are the negated
// oracleItemTimes within 1e-9, unreachable items -Inf.
func requireOracle(t *testing.T, w *walkRecommender, u int) {
	t.Helper()
	scores, err := w.ScoreItems(u)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range oracleItemTimes(t, w, u) {
		if got := -scores[i]; got != want && !(math.Abs(got-want) <= 1e-9) {
			t.Fatalf("%s user %d item %d: %v, exact %v", w.algo, u, i, got, want)
		}
	}
}

// figure2Graph reproduces the paper's Figure 2 rating table.
func figure2Graph(t testing.TB) *graph.Bipartite {
	t.Helper()
	g, err := graph.FromRatings(5, 6, []graph.Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 0, Item: 1, Weight: 3}, {User: 0, Item: 4, Weight: 3}, {User: 0, Item: 5, Weight: 5},
		{User: 1, Item: 0, Weight: 5}, {User: 1, Item: 1, Weight: 4}, {User: 1, Item: 2, Weight: 5}, {User: 1, Item: 4, Weight: 4}, {User: 1, Item: 5, Weight: 5},
		{User: 2, Item: 0, Weight: 4}, {User: 2, Item: 1, Weight: 5}, {User: 2, Item: 2, Weight: 4},
		{User: 3, Item: 2, Weight: 5}, {User: 3, Item: 3, Weight: 5},
		{User: 4, Item: 1, Weight: 4}, {User: 4, Item: 2, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func figure2Dataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	d, err := dataset.New(5, 6, []dataset.Rating{
		{User: 0, Item: 0, Score: 5}, {User: 0, Item: 1, Score: 3}, {User: 0, Item: 4, Score: 3}, {User: 0, Item: 5, Score: 5},
		{User: 1, Item: 0, Score: 5}, {User: 1, Item: 1, Score: 4}, {User: 1, Item: 2, Score: 5}, {User: 1, Item: 4, Score: 4}, {User: 1, Item: 5, Score: 5},
		{User: 2, Item: 0, Score: 4}, {User: 2, Item: 1, Score: 5}, {User: 2, Item: 2, Score: 4},
		{User: 3, Item: 2, Score: 5}, {User: 3, Item: 3, Score: 5},
		{User: 4, Item: 1, Score: 4}, {User: 4, Item: 2, Score: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestHittingTimeFigure2(t *testing.T) {
	g := figure2Graph(t)
	ht := NewHittingTime(g, WalkOptions{Iterations: convergedTau})
	if ht.Name() != "HT" {
		t.Fatalf("name %q", ht.Name())
	}
	requireOracle(t, &ht.walkRecommender, 4)
	recs, err := RecommendItems(ht, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The §3.3 worked example: U5's ranking is M4, M1, M5, M6 (items
	// 3, 0, 4, 5), and the rated M2/M3 are excluded.
	want := []int{3, 0, 4, 5}
	if len(recs) != 4 {
		t.Fatalf("got %d recs", len(recs))
	}
	for k, w := range want {
		if recs[k].Item != w {
			t.Fatalf("rec[%d] = item %d, want %d (full: %+v)", k, recs[k].Item, w, recs)
		}
	}
	for _, r := range recs {
		if r.Item == 1 || r.Item == 2 {
			t.Fatal("rated item recommended")
		}
	}
}

func TestHittingTimeTruncatedMatchesExactRanking(t *testing.T) {
	g := figure2Graph(t)
	trunc := NewHittingTime(g, WalkOptions{Iterations: 15})
	exact := oracleItemTimes(t, &trunc.walkRecommender, 4)
	// U5's unrated items (M2 and M3 are rated) in exact hitting-time order.
	re := []int{0, 3, 4, 5}
	sort.Slice(re, func(a, b int) bool { return exact[re[a]] < exact[re[b]] })
	rt, err := RecommendItems(trunc, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt) != len(re) {
		t.Fatalf("τ=15 gave %d items, want %d", len(rt), len(re))
	}
	for k := range re {
		if re[k] != rt[k].Item {
			t.Fatalf("τ=15 ranking diverges at %d: %+v vs exact %v", k, rt, re)
		}
	}
}

func TestAbsorbingTimeFigure2(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: convergedTau})
	if at.Name() != "AT" {
		t.Fatalf("name %q", at.Name())
	}
	requireOracle(t, &at.walkRecommender, 4)
	recs, err := RecommendItems(at, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d recs, want 4 unrated items", len(recs))
	}
	// The niche, taste-adjacent M4 (item 3, rated only by U4 who shares
	// M3 with U5) must beat the generic popular M1's cohort... at minimum
	// it must be ranked first as in the HT example.
	if recs[0].Item != 3 {
		t.Fatalf("AT top rec = %d, want 3 (M4); recs %+v", recs[0].Item, recs)
	}
	// Scores are negated times: all strictly negative and descending.
	prev := math.Inf(1)
	for _, r := range recs {
		if r.Score >= 0 {
			t.Fatalf("score %v not negative", r.Score)
		}
		if r.Score > prev {
			t.Fatal("recs not sorted by score")
		}
		prev = r.Score
	}
}

func TestAbsorbingTimeEqualsHittingTimeForSingletonSet(t *testing.T) {
	// A user with exactly one rated item: AT's absorbing set is that one
	// item node — still a different ranking than HT (which absorbs at the
	// user), but AT must agree with direct absorbing-time computation.
	g, err := graph.FromRatings(3, 4, []graph.Rating{
		{User: 0, Item: 0, Weight: 5},
		{User: 1, Item: 0, Weight: 4}, {User: 1, Item: 1, Weight: 4}, {User: 1, Item: 2, Weight: 2},
		{User: 2, Item: 2, Weight: 5}, {User: 2, Item: 3, Weight: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAbsorbingTime(g, WalkOptions{Iterations: convergedTau})
	requireOracle(t, &at.walkRecommender, 0)
	scores, err := at.ScoreItems(0)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != 0 {
		t.Fatalf("absorbing item's own time should be 0, got %v", -scores[0])
	}
	for i := 1; i < 4; i++ {
		if math.IsInf(scores[i], -1) {
			t.Fatalf("item %d unreachable", i)
		}
		if -scores[i] <= 0 {
			t.Fatalf("item %d time %v", i, -scores[i])
		}
	}
}

func TestColdUser(t *testing.T) {
	g, err := graph.FromRatings(2, 2, []graph.Rating{{User: 0, Item: 0, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAbsorbingTime(g, WalkOptions{})
	if _, err := at.ScoreItems(1); !errors.Is(err, ErrColdUser) {
		t.Fatalf("cold user error = %v", err)
	}
	entropies := make([]float64, 2)
	ac, err := NewAbsorbingCost(g, "AC1", entropies, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.ScoreItems(1); !errors.Is(err, ErrColdUser) {
		t.Fatalf("cold user error = %v", err)
	}
	// HT anchors at the user node itself, which is isolated: every item is
	// unreachable. That is the same cold user, not an empty success — the
	// caller's AllowFallback hangs on the error.
	ht := NewHittingTime(g, WalkOptions{})
	if recs, err := RecommendItems(ht, 1, 5); !errors.Is(err, ErrColdUser) {
		t.Fatalf("HT isolated user: recs %+v, err = %v, want ErrColdUser", recs, err)
	}
}

func TestAbsorbingCostValidation(t *testing.T) {
	g := figure2Graph(t)
	if _, err := NewAbsorbingCost(g, "AC1", []float64{1}, CostOptions{}); err == nil {
		t.Fatal("wrong entropy length accepted")
	}
	if _, err := NewAbsorbingCost(g, "AC1", []float64{1, 1, 1, 1, -1}, CostOptions{}); err == nil {
		t.Fatal("negative entropy accepted")
	}
	bad := []float64{1, 1, 1, math.NaN(), 1}
	if _, err := NewAbsorbingCost(g, "AC1", bad, CostOptions{}); err == nil {
		t.Fatal("NaN entropy accepted")
	}
}

func TestAbsorbingCostUniformEntropyMatchesTime(t *testing.T) {
	// With E(u) ≡ 1 and C = 1, every step costs exactly 1, so AC must
	// reproduce AT's values (Eq. 8's special case).
	g := figure2Graph(t)
	ones := []float64{1, 1, 1, 1, 1}
	ac, err := NewAbsorbingCost(g, "ACu", ones, CostOptions{UserCost: 1, WalkOptions: WalkOptions{Iterations: convergedTau}})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAbsorbingTime(g, WalkOptions{Iterations: convergedTau})
	requireOracle(t, &ac.walkRecommender, 4)
	sc, err := ac.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := at.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc {
		if math.IsInf(sc[i], -1) != math.IsInf(st[i], -1) {
			t.Fatalf("reachability differs at item %d", i)
		}
		if !math.IsInf(sc[i], -1) && math.Abs(sc[i]-st[i]) > 1e-9 {
			t.Fatalf("uniform-entropy AC %v != AT %v at item %d", sc[i], st[i], i)
		}
	}
}

func TestAbsorbingCostPrefersSpecificUsersPath(t *testing.T) {
	// The §4.2 motivating example: M3 is rated 5 by both the generalist U2
	// and the specialist U4. With entropy costs, the walk through U4 is
	// cheaper, so U4's other item (M4) must gain rank relative to the AT
	// ranking for query user U5.
	g := figure2Graph(t)
	d := figure2Dataset(t)
	ent := entropy.AllItemBased(d)
	// Sanity: U2 (user 1, five items) is more entropic than U4 (user 3).
	if !(ent[1] > ent[3]) {
		t.Fatalf("premise: E(U2)=%v should exceed E(U4)=%v", ent[1], ent[3])
	}
	ac, err := NewAbsorbingCost(g, "AC1", ent, CostOptions{WalkOptions: WalkOptions{Iterations: convergedTau}})
	if err != nil {
		t.Fatal(err)
	}
	requireOracle(t, &ac.walkRecommender, 4)
	recs, err := RecommendItems(ac, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Item != 3 {
		t.Fatalf("AC1 top rec = %d, want 3 (M4); recs %+v", recs[0].Item, recs)
	}
	// M4's margin over M1 must widen vs AT: compare normalized gaps.
	at := NewAbsorbingTime(g, WalkOptions{Iterations: convergedTau})
	sAC, err := ac.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	sAT, err := at.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	gapAC := (-sAC[0]) - (-sAC[3]) // cost(M1) - cost(M4)
	gapAT := (-sAT[0]) - (-sAT[3])
	relAC := gapAC / (-sAC[3])
	relAT := gapAT / (-sAT[3])
	if relAC <= relAT {
		t.Fatalf("entropy cost did not widen M4's relative margin: %.4f vs %.4f", relAC, relAT)
	}
}

func TestSubgraphBudgetLimitsScoring(t *testing.T) {
	// With a tiny µ, far-away items stay unscored (-Inf) instead of
	// receiving garbage values.
	g := figure2Graph(t)
	ht := NewHittingTime(g, WalkOptions{MaxSubgraphItems: 1, Iterations: 10})
	scores, err := ht.ScoreItems(3) // U4 rated M3, M4
	if err != nil {
		t.Fatal(err)
	}
	scored := 0
	for _, s := range scores {
		if !math.IsInf(s, -1) {
			scored++
		}
	}
	if scored == 0 || scored == g.NumItems() {
		t.Fatalf("µ=1 scored %d of %d items; expected a strict subset", scored, g.NumItems())
	}
}

func TestFuncRecommender(t *testing.T) {
	g := figure2Graph(t)
	pop := []float64{3, 4, 4, 1, 2, 2}
	fr, err := NewFuncRecommender("Pop", g, func(u int) ([]float64, error) {
		out := make([]float64, len(pop))
		copy(out, pop)
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Name() != "Pop" {
		t.Fatalf("name %q", fr.Name())
	}
	recs, err := RecommendItems(fr, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// U5 rated items 1, 2 (the most popular); top unrated by popularity is
	// item 0 (pop 3) then 4 (pop 2, ties with 5 break low).
	if len(recs) != 2 || recs[0].Item != 0 || recs[1].Item != 4 {
		t.Fatalf("recs %+v", recs)
	}
}

func TestFuncRecommenderValidation(t *testing.T) {
	g := figure2Graph(t)
	if _, err := NewFuncRecommender("", g, func(int) ([]float64, error) { return nil, nil }); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewFuncRecommender("x", nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	fr, err := NewFuncRecommender("short", g, func(int) ([]float64, error) { return []float64{1}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ScoreItems(0); err == nil {
		t.Fatal("short score vector accepted")
	}
	if _, err := fr.ScoreItems(-1); err == nil {
		t.Fatal("negative user accepted")
	}
}

func TestRankOf(t *testing.T) {
	scores := []float64{0.9, 0.5, 0.7, 0.5}
	cands := []int{0, 1, 2, 3}
	if r := RankOf(scores, 0, cands); r != 1 {
		t.Fatalf("rank of best = %d", r)
	}
	if r := RankOf(scores, 2, cands); r != 2 {
		t.Fatalf("rank of second = %d", r)
	}
	// Tie at 0.5: item 1 beats item 3 (lower index pessimism).
	if r := RankOf(scores, 3, cands); r != 4 {
		t.Fatalf("rank of tied-last = %d", r)
	}
	if r := RankOf(scores, 1, cands); r != 3 {
		t.Fatalf("rank of tied-first = %d", r)
	}
	if r := RankOf(scores, 2, []int{0, 1}); r != 0 {
		t.Fatalf("rank of absent target = %d", r)
	}
}

func TestWalkRecommendersExcludeRated(t *testing.T) {
	g := figure2Graph(t)
	d := figure2Dataset(t)
	ent := entropy.AllItemBased(d)
	ac, err := NewAbsorbingCost(g, "AC1", ent, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Recommender{
		NewHittingTime(g, WalkOptions{}),
		NewAbsorbingTime(g, WalkOptions{}),
		ac,
	} {
		for u := 0; u < g.NumUsers(); u++ {
			recs, err := RecommendItems(rec, u, 10)
			if err != nil {
				t.Fatalf("%s user %d: %v", rec.Name(), u, err)
			}
			items, _ := g.UserItems(u)
			rated := map[int]struct{}{}
			for _, i := range items {
				rated[i] = struct{}{}
			}
			for _, r := range recs {
				if _, bad := rated[r.Item]; bad {
					t.Fatalf("%s recommended rated item %d to user %d", rec.Name(), r.Item, u)
				}
			}
		}
	}
}
