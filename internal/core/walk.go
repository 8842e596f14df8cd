package core

import (
	"fmt"
	"math"

	"longtailrec/internal/graph"
)

// WalkOptions configure the random-walk recommenders (Algorithm 1).
type WalkOptions struct {
	// MaxSubgraphItems is µ: the BFS expansion stops once the local
	// subgraph holds more than this many item nodes. <= 0 means 6000, the
	// paper's default. Set very large to effectively use the whole graph.
	MaxSubgraphItems int
	// Iterations is τ, the truncated dynamic-programming sweep count.
	// <= 0 means 15, the paper's default.
	Iterations int
}

func (o WalkOptions) withDefaults() WalkOptions {
	if o.MaxSubgraphItems <= 0 {
		o.MaxSubgraphItems = 6000
	}
	if o.Iterations <= 0 {
		o.Iterations = 15
	}
	return o
}

// walkRecommender is the shared engine-backed implementation behind the
// four walk recommenders: each one is a walkSpec bound to a pooled
// Engine under an algorithm name.
type walkRecommender struct {
	g    *graph.Bipartite
	eng  *Engine
	spec walkSpec
	algo string
}

func newWalkRecommender(g *graph.Bipartite, opts WalkOptions, spec walkSpec, algo string) walkRecommender {
	return walkRecommender{g: g, eng: NewEngine(g, opts), spec: spec, algo: algo}
}

// Name implements Recommender.
func (w *walkRecommender) Name() string { return w.algo }

// ScoreItems returns the negated walk time/cost per item over the full item
// universe (-Inf outside the BFS subgraph). The caller owns the slice.
func (w *walkRecommender) ScoreItems(u int) ([]float64, error) {
	return w.eng.scoreItemsFull(u, w.spec)
}

// ScoreItemsCompact returns scores only for the subgraph-resident items —
// the allocation-light view the engine computes natively. The caller owns
// the slice.
func (w *walkRecommender) ScoreItemsCompact(u int) ([]ItemScore, error) {
	return w.eng.scoreItemsCompact(u, w.spec)
}

// Recommend implements Recommender through the pooled engine: the
// request's context is checked at the extraction boundaries and between τ
// sweeps, the candidate/exclude/long-tail options are applied inside the
// engine's stamped selection loop, and fp (when non-nil) receives the
// query's dependency fingerprint — write-generation watermark + bloom of
// the subgraph's node ids.
func (w *walkRecommender) Recommend(req Request, fp *graph.Fingerprint) (Response, error) {
	return w.eng.recommend(req, w.spec, w.algo, fp)
}

// HittingTime is the user-based recommender of §3.3: items are ranked by
// the smallest expected number of steps H(q|j) a walker starting at item j
// needs to hit the query user q. Popular items have large stationary mass
// and therefore large hitting times, so the ranking naturally surfaces the
// long tail.
type HittingTime struct {
	walkRecommender
}

// NewHittingTime builds the recommender over a user–item graph.
func NewHittingTime(g *graph.Bipartite, opts WalkOptions) *HittingTime {
	return &HittingTime{newWalkRecommender(g, opts, walkSpec{seedUser: true}, "HT")}
}

// AbsorbingTime is the item-based recommender of §4.1 (Algorithm 1): the
// user's whole rated set S_q becomes absorbing, and candidate items are
// ranked by the expected steps AT(S_q|i) until absorption.
type AbsorbingTime struct {
	walkRecommender
}

// NewAbsorbingTime builds the recommender.
func NewAbsorbingTime(g *graph.Bipartite, opts WalkOptions) *AbsorbingTime {
	return &AbsorbingTime{newWalkRecommender(g, opts, walkSpec{}, "AT")}
}

// AbsorbingCost is the entropy-biased recommender of §4.2 (Eq. 9): the
// same absorbing walk as AbsorbingTime, but stepping from an item into a
// user costs that user's entropy while stepping from a user into an item
// costs the constant C. Construct it with item-based entropies for AC1 or
// topic-based entropies for AC2.
type AbsorbingCost struct {
	walkRecommender
}

// CostOptions extend WalkOptions with the entropy-cost model parameters.
type CostOptions struct {
	WalkOptions
	// UserCost is C, the cost of a user→item transition (Eq. 9);
	// <= 0 means 1.0.
	UserCost float64
	// EntropyFloor raises every user entropy to at least this value so
	// single-item users do not become free corridors; <= 0 means 0.05.
	EntropyFloor float64
}

func (o CostOptions) withDefaults() CostOptions {
	o.WalkOptions = o.WalkOptions.withDefaults()
	if o.UserCost <= 0 {
		o.UserCost = 1.0
	}
	if o.EntropyFloor <= 0 {
		o.EntropyFloor = 0.05
	}
	return o
}

// flooredEntropies validates an entropy vector and raises it to the floor.
func flooredEntropies(src []float64, floor float64) ([]float64, error) {
	out := make([]float64, len(src))
	for i, e := range src {
		if e < 0 || math.IsNaN(e) {
			return nil, fmt.Errorf("core: entropy %v at %d invalid", e, i)
		}
		if e < floor {
			out[i] = floor
		} else {
			out[i] = e
		}
	}
	return out, nil
}

// NewAbsorbingCost builds an entropy-cost recommender. name should be
// "AC1" (item-based entropies) or "AC2" (topic-based), but any label is
// accepted. userEntropy must cover at least the graph's built user
// universe (and at most its current one); users admitted live after the
// vector was computed are charged the entropy floor (no history yet).
func NewAbsorbingCost(g *graph.Bipartite, name string, userEntropy []float64, opts CostOptions) (*AbsorbingCost, error) {
	if len(userEntropy) < g.BaseNumUsers() || len(userEntropy) > g.NumUsers() {
		return nil, fmt.Errorf("core: %d entropies for %d users", len(userEntropy), g.NumUsers())
	}
	opts = opts.withDefaults()
	floored, err := flooredEntropies(userEntropy, opts.EntropyFloor)
	if err != nil {
		return nil, err
	}
	return &AbsorbingCost{
		walkRecommender: newWalkRecommender(g, opts.WalkOptions, walkSpec{
			costed:     true,
			userEnter:  floored,
			userCost:   opts.UserCost,
			enterFloor: opts.EntropyFloor,
		}, name),
	}, nil
}

// SymmetricAbsorbingCost extends the Eq. 9 cost model in the direction
// §4.2.1 leaves open: instead of a constant C for user→item transitions,
// entering item i costs that item's entropy over its raters. Blockbusters
// (high item entropy) become expensive hubs, niche items cheap corridors —
// pushing the walk's cost structure further toward the tail. This is an
// extension beyond the paper's evaluated variants, benchmarked in the
// ablation suite.
type SymmetricAbsorbingCost struct {
	walkRecommender
}

// NewSymmetricAbsorbingCost builds the symmetric-cost recommender.
// Both entropy vectors must cover at least the graph's built universe and
// are floored at opts.EntropyFloor; users and items admitted live past
// their ends are charged the floor.
func NewSymmetricAbsorbingCost(g *graph.Bipartite, name string, userEntropy, itemEntropy []float64, opts CostOptions) (*SymmetricAbsorbingCost, error) {
	if len(userEntropy) < g.BaseNumUsers() || len(userEntropy) > g.NumUsers() {
		return nil, fmt.Errorf("core: %d user entropies for %d users", len(userEntropy), g.NumUsers())
	}
	if len(itemEntropy) < g.BaseNumItems() || len(itemEntropy) > g.NumItems() {
		return nil, fmt.Errorf("core: %d item entropies for %d items", len(itemEntropy), g.NumItems())
	}
	opts = opts.withDefaults()
	ue, err := flooredEntropies(userEntropy, opts.EntropyFloor)
	if err != nil {
		return nil, err
	}
	ie, err := flooredEntropies(itemEntropy, opts.EntropyFloor)
	if err != nil {
		return nil, err
	}
	return &SymmetricAbsorbingCost{
		walkRecommender: newWalkRecommender(g, opts.WalkOptions, walkSpec{
			costed:     true,
			userEnter:  ue,
			itemEnter:  ie,
			enterFloor: opts.EntropyFloor,
		}, name),
	}, nil
}

// userItemNodes maps S_q to graph node ids, failing on cold users.
func userItemNodes(g *graph.Bipartite, u int) ([]int, error) {
	items, _ := g.UserItems(u)
	if len(items) == 0 {
		return nil, fmt.Errorf("%w: user %d", ErrColdUser, u)
	}
	nodes := make([]int, len(items))
	for k, i := range items {
		nodes[k] = g.ItemNode(i)
	}
	return nodes, nil
}
