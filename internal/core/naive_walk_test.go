// An independent ranking check for the walk recommenders: a deliberately
// naive Algorithm 1 that shares nothing with the engine's hot path — map
// based BFS that numbers nodes in DISCOVERY order, a COO-built adjacency,
// explicit StepCosts into the allocating AbsorbingCostTruncated (every
// state advanced on every sweep), a full sort for the top k. The extractor
// numbers non-seed nodes users first, then items, each by ascending
// original id, so every row of its chain sums its neighbours in a different
// order than this reference does, and the fused kernel advances one of the
// two blocks per sweep; the two must still rank the same items in the same
// order with scores within 1e-9 — renumbering a chain's states moves
// rounding, nothing else, and the block schedule moves nothing on an item
// row. The one freedom rounding
// has: items whose scores tie in exact arithmetic (structural twins, e.g.
// two items rated once each, by the same user, with the same score) are
// ordered by the last bits, so within such a tie the two paths may differ.
// (A first brick of the naive whole-system reference ROADMAP asks for.)

package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"longtailrec/internal/dataset"
	"longtailrec/internal/entropy"
	"longtailrec/internal/graph"
	"longtailrec/internal/lda"
	"longtailrec/internal/markov"
	"longtailrec/internal/sparse"
)

// naiveWalk is one walk recommender reduced to its definition: where the
// walk is absorbed and what entering a node costs (nil = every step 1).
type naiveWalk struct {
	seedUser  bool
	userEnter []float64 // floored entropies; nil for HT/AT
	floor     float64   // entry cost of a user admitted after userEnter was computed
	userCost  float64
	mu, tau   int
}

// rank orders ALL of user u's unrated subgraph items by ascending truncated
// absorbing time/cost, ties toward the smaller item index.
func (w naiveWalk) rank(t *testing.T, g *graph.Bipartite, u int) []Scored {
	t.Helper()
	userNode := g.UserNode(u)
	rated, _ := g.Neighbors(userNode)
	seeds := rated
	if w.seedUser {
		seeds = []int{userNode}
	}

	// Algorithm 1 step 2, map-based, local ids in discovery order.
	local := map[int]int{}
	var nodes []int
	items := 0
	add := func(v int) {
		local[v] = len(nodes)
		nodes = append(nodes, v)
		if g.IsItemNode(v) {
			items++
		}
	}
	for _, s := range seeds {
		add(s)
	}
	for head := 0; head < len(nodes) && items <= w.mu; head++ {
		nbrs, _ := g.Neighbors(nodes[head])
		for _, v := range nbrs {
			if _, in := local[v]; in || (items > w.mu && g.IsItemNode(v)) {
				continue
			}
			add(v)
		}
	}
	coo := sparse.NewCOO(len(nodes), len(nodes))
	for l, v := range nodes {
		nbrs, ws := g.Neighbors(v)
		for j, nb := range nbrs {
			if lnb, in := local[nb]; in {
				coo.Add(l, lnb, ws[j])
			}
		}
	}
	chain, err := markov.NewChain(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}

	absorbing := make([]int, len(seeds))
	for l := range absorbing {
		absorbing[l] = l
	}
	stepCost := make([]float64, len(nodes))
	for l := range stepCost {
		stepCost[l] = 1
	}
	if w.userEnter != nil {
		enter := make([]float64, len(nodes))
		for l, v := range nodes {
			switch {
			case !g.IsUserNode(v):
				enter[l] = w.userCost
			case g.UserIndex(v) < len(w.userEnter):
				enter[l] = w.userEnter[g.UserIndex(v)]
			default:
				enter[l] = w.floor
			}
		}
		stepCost = chain.StepCosts(enter)
	}
	times, err := chain.AbsorbingCostTruncated(absorbing, stepCost, w.tau)
	if err != nil {
		t.Fatal(err)
	}

	isRated := map[int]bool{}
	for _, v := range rated {
		isRated[v] = true
	}
	var out []Scored
	for l, v := range nodes {
		if g.IsItemNode(v) && !isRated[v] {
			out = append(out, Scored{Item: g.ItemIndex(v), Score: -times[l]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Item < out[b].Item
	})
	return out
}

// TestEngineMatchesNaiveDiscoveryOrderWalk compares HT, AT, AC1 and AC2
// through the engine against the naive walk on a graph where µ cuts the
// BFS short (the subgraph is a strict subset of the component, so which
// nodes are members is itself under test) — first as built, then after
// users and items were admitted alternately and rated, so that node ids
// past the base interleave the two types and the extractor has to pull
// them into their blocks.
func TestEngineMatchesNaiveDiscoveryOrderWalk(t *testing.T) {
	const numUsers, numItems, mu, tau, k = 60, 150, 25, 15, 10
	rng := rand.New(rand.NewSource(11))
	var ratings []dataset.Rating
	seen := map[[2]int]bool{}
	for u := 0; u < numUsers; u++ {
		for n := 4 + rng.Intn(8); n > 0; n-- {
			// Squaring skews toward low item ids: a popular head and a tail.
			i := int(float64(numItems) * rng.Float64() * rng.Float64())
			if seen[[2]int{u, i}] {
				continue
			}
			seen[[2]int{u, i}] = true
			ratings = append(ratings, dataset.Rating{User: u, Item: i, Score: float64(1 + rng.Intn(5))})
		}
	}
	d, err := dataset.New(numUsers, numItems, ratings)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	model, err := lda.Train(d, lda.Config{NumTopics: 4, Iterations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := CostOptions{WalkOptions: WalkOptions{MaxSubgraphItems: mu, Iterations: tau}}.withDefaults()
	itemBased := entropy.AllItemBased(d)
	topicBased := entropy.AllTopicBased(model)
	ac1, err := NewAbsorbingCost(g, "AC1", itemBased, opts)
	if err != nil {
		t.Fatal(err)
	}
	ac2, err := NewAbsorbingCost(g, "AC2", topicBased, opts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []naiveWalkCase{
		{NewHittingTime(g, opts.WalkOptions), naiveWalk{seedUser: true}},
		{NewAbsorbingTime(g, opts.WalkOptions), naiveWalk{}},
		{ac1, naiveWalk{userEnter: entropy.Floor(itemBased, opts.EntropyFloor), floor: opts.EntropyFloor, userCost: opts.UserCost}},
		{ac2, naiveWalk{userEnter: entropy.Floor(topicBased, opts.EntropyFloor), floor: opts.EntropyFloor, userCost: opts.UserCost}},
	}
	t.Run("as built", func(t *testing.T) { compareWithNaiveWalk(t, g, cases, mu, tau, k) })

	for n := 0; n < 8; n++ {
		for _, w := range [][2]int{{g.NumUsers(), rng.Intn(numItems)}, {rng.Intn(numUsers), g.NumItems()}} {
			if _, err := g.UpsertRatingAutoGrow(w[0], w[1], float64(1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := 0; n < 80; n++ {
		// Half the new ratings join an admitted user to an admitted item.
		u, i := rng.Intn(g.NumUsers()), rng.Intn(g.NumItems())
		if n%2 == 0 {
			u, i = numUsers+rng.Intn(8), numItems+rng.Intn(8)
		}
		if _, err := g.UpsertRatingAutoGrow(u, i, float64(1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	if u, i := g.UserNode(g.NumUsers()-1), g.ItemNode(numItems); u < i {
		t.Fatalf("fixture: last user node %d below first admitted item node %d, nothing interleaves", u, i)
	}
	t.Run("grown universe", func(t *testing.T) { compareWithNaiveWalk(t, g, cases, mu, tau, k) })
}

// naiveWalkCase pairs an engine-backed recommender with its definition.
type naiveWalkCase struct {
	rec   Recommender
	naive naiveWalk
}

// compareWithNaiveWalk checks every user's top k under every case: same
// items in the same order (up to exact-arithmetic ties), scores within 1e-9.
func compareWithNaiveWalk(t *testing.T, g *graph.Bipartite, cases []naiveWalkCase, mu, tau, k int) {
	t.Helper()
	truncated := false
	ranks, tieFlips := 0, 0
	for _, c := range cases {
		c.naive.mu, c.naive.tau = mu, tau
		for u := 0; u < g.NumUsers(); u++ {
			got, err := RecommendItems(c.rec, u, k)
			if err != nil {
				t.Fatalf("%s user %d: %v", c.rec.Name(), u, err)
			}
			want := c.naive.rank(t, g, u)
			naiveScore := make(map[int]float64, len(want))
			for _, s := range want {
				naiveScore[s.Item] = s.Score
			}
			if len(got) != min(k, len(want)) {
				t.Fatalf("%s user %d: %d items, naive walk ranks %d", c.rec.Name(), u, len(got), len(want))
			}
			for r := range got {
				if math.Abs(got[r].Score-want[r].Score) > 1e-9 {
					t.Fatalf("%s user %d rank %d: engine %+v, naive walk %+v", c.rec.Name(), u, r, got[r], want[r])
				}
				ranks++
				if got[r].Item == want[r].Item {
					continue
				}
				// A different item at this rank is legitimate only inside
				// a tie: the naive walk gives it this rank's score too.
				if s, ok := naiveScore[got[r].Item]; !ok || math.Abs(s-want[r].Score) > 1e-9 {
					t.Fatalf("%s user %d rank %d: engine %+v, naive walk %+v", c.rec.Name(), u, r, got[r], want[r])
				}
				tieFlips++
			}
		}
		// The fixture only proves something while µ really truncates.
		full, err := c.rec.ScoreItems(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range full {
			if math.IsInf(s, -1) {
				truncated = true
			}
		}
	}
	if !truncated {
		t.Fatal("fixture does not truncate: µ never cut the BFS")
	}
	// Ties must stay the exception, or the order check above is vacuous.
	if tieFlips*20 > ranks {
		t.Fatalf("%d of %d ranks differ inside score ties", tieFlips, ranks)
	}
	t.Logf("%d ranks compared, %d ordered differently inside an exact-arithmetic tie", ranks, tieFlips)
}
