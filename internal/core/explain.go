package core

import (
	"fmt"
	"sort"
	"sync"

	"longtailrec/internal/graph"
	"longtailrec/internal/markov"
)

// explainExtractors pools SubgraphExtractor values for ExplainAbsorption so
// repeated explain calls do not re-allocate the extractor's two
// graph-sized stamp/local arrays per call. Entries are bound to one parent
// graph; a pooled extractor for a different graph is simply discarded.
var explainExtractors sync.Pool

func borrowExtractor(g *graph.Bipartite) *graph.SubgraphExtractor {
	// An extractor bound to a different graph is dropped for GC; a match
	// passes to the caller, who Puts it back.
	if e, _ := explainExtractors.Get().(*graph.SubgraphExtractor); e != nil && e.Graph() == g {
		return e
	}
	return graph.NewSubgraphExtractor(g)
}

// Anchor attributes a share of a recommendation to one of the user's rated
// items: the probability that a random walk starting at the candidate item
// is absorbed at that particular member of S_q.
type Anchor struct {
	Item        int     // a rated item of the query user
	Probability float64 // absorption share, sums to ~1 over all anchors
}

// ExplainAbsorption explains why the Absorbing Time / Absorbing Cost
// family would recommend `candidate` to user u: it decomposes the
// candidate's absorption mass across the user's rated items, so "because
// you rated X" comes with an actual probability. Returns anchors sorted by
// descending share. The computation runs |S_q| absorption solves on the
// Algorithm 1 subgraph — a diagnostic path, not a ranking hot path.
func ExplainAbsorption(g *graph.Bipartite, u, candidate int, opts WalkOptions) ([]Anchor, error) {
	if err := validateUser(u, g.NumUsers()); err != nil {
		return nil, err
	}
	if candidate < 0 || candidate >= g.NumItems() {
		return nil, fmt.Errorf("core: candidate item %d out of range [0,%d)", candidate, g.NumItems())
	}
	opts = opts.withDefaults()
	absorb, err := userItemNodes(g, u)
	if err != nil {
		return nil, err
	}
	for _, node := range absorb {
		if g.ItemIndex(node) == candidate {
			return nil, fmt.Errorf("core: candidate %d is already rated by user %d", candidate, u)
		}
	}
	ext := borrowExtractor(g)
	defer explainExtractors.Put(ext)
	sg, err := ext.ExtractByID(absorb, opts.MaxSubgraphItems)
	if err != nil {
		return nil, fmt.Errorf("core: subgraph: %w", err)
	}
	candLocal, ok := sg.LocalNode(g.ItemNode(candidate))
	if !ok {
		return nil, fmt.Errorf("core: candidate %d outside the user's subgraph (µ=%d)", candidate, opts.MaxSubgraphItems)
	}
	chain, err := markov.NewChainWithDegrees(sg.Adjacency(), sg.Degrees())
	if err != nil {
		return nil, fmt.Errorf("core: chain: %w", err)
	}
	absorbLocal := make([]int, len(absorb))
	for k, node := range absorb {
		l, ok := sg.LocalNode(node)
		if !ok {
			return nil, fmt.Errorf("core: absorbing node %d missing from subgraph", node)
		}
		absorbLocal[k] = l
	}
	anchors := make([]Anchor, 0, len(absorb))
	for k, node := range absorb {
		b, err := chain.AbsorptionProbability(absorbLocal, absorbLocal[k])
		if err != nil {
			return nil, fmt.Errorf("core: absorption solve: %w", err)
		}
		p := b[candLocal]
		if p > 0 {
			anchors = append(anchors, Anchor{Item: g.ItemIndex(node), Probability: p})
		}
	}
	sort.Slice(anchors, func(a, b int) bool {
		if anchors[a].Probability != anchors[b].Probability {
			return anchors[a].Probability > anchors[b].Probability
		}
		return anchors[a].Item < anchors[b].Item
	})
	return anchors, nil
}
