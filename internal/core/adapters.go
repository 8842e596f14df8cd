package core

import (
	"fmt"

	"longtailrec/internal/graph"
)

// ScoreFunc computes higher-is-better item scores for a user.
type ScoreFunc func(u int) ([]float64, error)

// FuncRecommender adapts any score function (LDA, PureSVD, DPPR, kNN,
// popularity, association rules, ...) to the Recommender interface, using
// the graph to exclude already-rated items from Recommend.
//
// The wrapped model scores the universe it was trained on, frozen at
// construction time. The graph, by contrast, is live and may grow: users
// admitted after construction are reported as ErrColdUser (the model has
// never seen them — the serving layer degrades to its popularity
// fallback), while users beyond even the live universe are out of range.
type FuncRecommender struct {
	name string
	g    *graph.Bipartite
	fn   ScoreFunc

	// snapUsers/snapItems are the model's universe: the graph's BASE
	// universe, i.e. the corpus it was built from. Construction may happen
	// lazily after the graph has already grown, so the live counts would
	// overstate what the model covers.
	snapUsers, snapItems int
}

// NewFuncRecommender wraps fn under the given algorithm name.
func NewFuncRecommender(name string, g *graph.Bipartite, fn ScoreFunc) (*FuncRecommender, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty recommender name")
	}
	if g == nil || fn == nil {
		return nil, fmt.Errorf("core: nil graph or score function")
	}
	return &FuncRecommender{
		name: name, g: g, fn: fn,
		snapUsers: g.BaseNumUsers(), snapItems: g.BaseNumItems(),
	}, nil
}

// Name implements Recommender.
func (f *FuncRecommender) Name() string { return f.name }

// ScoreItems implements Recommender.
func (f *FuncRecommender) ScoreItems(u int) ([]float64, error) {
	if err := validateUser(u, f.g.NumUsers()); err != nil {
		return nil, err
	}
	if u >= f.snapUsers {
		return nil, fmt.Errorf("%w: user %d joined after %s's model snapshot", ErrColdUser, u, f.name)
	}
	scores, err := f.fn(u)
	if err != nil {
		return nil, err
	}
	// Graph-backed score functions (DPPR, PPR, ...) may legitimately cover
	// items admitted after construction; model-backed ones cover exactly
	// the snapshot. Anything shorter is a contract violation.
	if len(scores) < f.snapItems {
		return nil, fmt.Errorf("core: %s returned %d scores for %d items", f.name, len(scores), f.snapItems)
	}
	return scores, nil
}

// Recommend implements Recommender for the score-function adapters: the
// wrapped model scores the full universe (checked against the request
// context first — these models can take tens of milliseconds), then the
// option filters are applied during top-k selection so an option-narrowed
// request still fills its K slots. The adapters cannot fingerprint: fp is
// left untouched, so cached entries revalidate epoch-exactly.
func (f *FuncRecommender) Recommend(req Request, _ *graph.Fingerprint) (Response, error) {
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	if err := req.err(); err != nil {
		return Response{}, fmt.Errorf("core: %s: %w", f.name, err)
	}
	scores, err := f.ScoreItems(req.User)
	if err != nil {
		return Response{}, err
	}
	if err := req.err(); err != nil {
		return Response{}, fmt.Errorf("core: %s: %w", f.name, err)
	}
	items, _ := f.g.UserItems(req.User)
	rated := make(map[int]struct{}, len(items))
	for _, i := range items {
		rated[i] = struct{}{}
	}
	var pop []int
	if req.LongTailOnly > 0 {
		pop = f.g.ItemPopularity()
	}
	return Response{
		Items: selectTopKFiltered(scores, req, rated, pop),
		Epoch: f.g.Epoch(),
		Algo:  f.name,
	}, nil
}
