package main

import (
	"fmt"
	"math"

	"longtailrec"
	"longtailrec/internal/entropy"
	"longtailrec/internal/graph"
	"longtailrec/internal/markov"
	"longtailrec/internal/server"
	"longtailrec/internal/topk"
)

// walkModel replays one cold recommendation stage by stage on the
// serving graph, through the same public functions the engine calls:
// SubgraphExtractor.Extract, Chain.Reset, Chain.AbsorbingCostFused and
// topk.Selector. It is both the per-stage clock of the traced pass and
// the oracle the HTTP answers are checked against. Not safe for
// concurrent use, and only meaningful while no write is in flight.
type walkModel struct {
	g *graph.Bipartite
	// enter is the floored per-user entry cost (AC2); nil for AT, whose
	// steps all cost 1.
	enter           []float64
	userCost, floor float64
	mu, tau         int

	ext   *graph.SubgraphExtractor
	chain markov.Chain
	scr   markov.ChainScratch
}

func newWalkModel(sys *longtail.System, algo string, cfg longtail.Config) (*walkModel, error) {
	m := &walkModel{
		g:        sys.Graph(),
		userCost: cfg.UserCost,
		floor:    cfg.EntropyFloor,
		mu:       cfg.Walk.MaxSubgraphItems,
		tau:      cfg.Walk.Iterations,
		ext:      graph.NewSubgraphExtractor(sys.Graph()),
	}
	switch algo {
	case "AT":
	case "AC2":
		lda, err := sys.LDAModel()
		if err != nil {
			return nil, err
		}
		m.enter = entropy.Floor(entropy.AllTopicBased(lda), m.floor)
	default:
		return nil, fmt.Errorf("replay: no stage model for algorithm %q", algo)
	}
	return m, nil
}

// walk is one replayed recommendation.
type walk struct {
	items        []server.RecommendedItem // Item and Score only
	nodes, edges int
	// edgeVisits is the exact number of inner-loop steps of the sweeps:
	// tau times the stored entries of every non-absorbing row.
	edgeVisits int64
	sg         *graph.Subgraph // valid until the next replay
	numAbsorb  int
	enterLocal []float64 // aliases scratch
}

// replay runs the four stages for the user. With a tracer it also
// records replay.walk and one child span per stage.
func (m *walkModel) replay(user int, tr *tracer, request int) (walk, error) {
	var w walk
	root := 0
	stage := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		id := tr.begin(name, root, request)
		err := f()
		tr.end(id, "")
		return err
	}
	if tr != nil {
		root = tr.begin("replay.walk", 0, request)
		defer tr.end(root, "")
	}
	g := m.g
	if user < 0 || user >= g.NumUsers() {
		return w, fmt.Errorf("replay: user %d outside the graph", user)
	}
	seeds, _ := g.Neighbors(g.UserNode(user))
	if len(seeds) == 0 {
		return w, fmt.Errorf("replay: user %d is cold", user)
	}
	var sg *graph.Subgraph
	if err := stage("graph.extract", func() (err error) {
		sg, err = m.ext.Extract(seeds, m.mu)
		return err
	}); err != nil {
		return w, err
	}
	n := sg.Len()
	w.sg, w.numAbsorb = sg, len(seeds)
	w.nodes, w.edges = n, sg.Adjacency().NNZ()
	absorbed := 0
	for l := 0; l < len(seeds); l++ {
		absorbed += sg.Adjacency().RowNNZ(l)
	}
	w.edgeVisits = int64(m.tau) * int64(w.edges-absorbed)

	// Chain build is the chain itself plus the vectors the sweeps read:
	// the absorbing mask and, for the cost model, each state's entry
	// cost (Eq. 9).
	var enter []float64
	if err := stage("markov.chain_build", func() error {
		if err := m.chain.Reset(sg.Adjacency(), sg.Degrees()); err != nil {
			return err
		}
		m.scr.Resize(n)
		if m.enter != nil {
			enter = m.scr.Enter
			for l := 0; l < n; l++ {
				orig := sg.OriginalNode(l)
				switch {
				case !g.IsUserNode(orig):
					enter[l] = m.userCost
				case g.UserIndex(orig) < len(m.enter):
					enter[l] = m.enter[g.UserIndex(orig)]
				default:
					enter[l] = m.floor // admitted after the LDA snapshot
				}
			}
		}
		for l := 0; l < len(seeds); l++ {
			m.scr.Mask[l] = true
		}
		return nil
	}); err != nil {
		return w, err
	}
	w.enterLocal = enter

	var times []float64
	if err := stage("markov.sweeps", func() (err error) {
		times, err = m.chain.AbsorbingCostFused(&m.scr, enter, m.tau)
		return err
	}); err != nil {
		return w, err
	}

	return w, stage("topk.select", func() error {
		rated := make(map[int]struct{}, len(seeds))
		for _, node := range seeds {
			rated[g.ItemIndex(node)] = struct{}{}
		}
		sel := topk.NewSelector(recommendK)
		for l, t := range times {
			orig := sg.OriginalNode(l)
			if !g.IsItemNode(orig) || math.IsInf(t, 1) || math.IsNaN(t) {
				continue
			}
			item := g.ItemIndex(orig)
			if _, skip := rated[item]; skip {
				continue
			}
			sel.Offer(item, -t)
		}
		for _, it := range sel.Take() {
			w.items = append(w.items, server.RecommendedItem{Item: it.ID, Score: it.Score})
		}
		return nil
	})
}

// sameRanking reports whether an HTTP answer lists exactly the replay's
// items in the replay's order.
func sameRanking(got []server.RecommendedItem, want []server.RecommendedItem) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Item != want[i].Item {
			return false
		}
	}
	return true
}

// twoPassAgrees checks an HTTP answer's scores against the allocating
// two-pass solver (explicit step costs, then AbsorbingCostTruncated) on
// the subgraph of the walk just replayed: an independent implementation
// of the same recurrence, within 1e-9.
func (m *walkModel) twoPassAgrees(w walk, got []server.RecommendedItem) (bool, error) {
	chain, err := markov.NewChainWithDegrees(w.sg.Adjacency(), w.sg.Degrees())
	if err != nil {
		return false, err
	}
	absorbing := make([]int, w.numAbsorb)
	for l := range absorbing {
		absorbing[l] = l
	}
	var times []float64
	if w.enterLocal == nil {
		times, err = chain.AbsorbingTimeTruncated(absorbing, m.tau)
	} else {
		times, err = chain.AbsorbingCostTruncated(absorbing, chain.StepCosts(w.enterLocal), m.tau)
	}
	if err != nil {
		return false, err
	}
	for _, it := range got {
		l, ok := w.sg.LocalNode(m.g.ItemNode(it.Item))
		if !ok || math.Abs(-times[l]-it.Score) > 1e-9 {
			return false, nil
		}
	}
	return true, nil
}
