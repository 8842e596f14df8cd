// Package pagerank implements Personalized PageRank on the user–item
// bipartite graph and the paper's Discounted Personalized PageRank (DPPR)
// baseline (§5.1.1, Eq. 15): DPPR(i|S) = PPR(i|S) / Popularity(i),
// a popularity-discounted variant designed to surface long-tail items.
package pagerank

import (
	"fmt"
	"math"

	"longtailrec/internal/graph"
)

// Options configure the PPR power iteration.
type Options struct {
	Damping   float64 // restart probability complement λ; <= 0 means 0.5 (paper default)
	MaxIters  int     // <= 0 means 100
	Tolerance float64 // L1 convergence threshold; <= 0 means 1e-10
}

func (o Options) withDefaults() Options {
	if o.Damping <= 0 {
		o.Damping = 0.5
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-10
	}
	return o
}

// Personalized computes the personalized PageRank vector with restart set
// S (uniform restart over S): p = (1-λ)·e_S + λ·Pᵀ·p, iterated to
// convergence. Nodes with zero degree dump their mass back into the
// restart set so the result stays a distribution.
func Personalized(g *graph.Bipartite, restart []int, opts Options) ([]float64, error) {
	if len(restart) == 0 {
		return nil, fmt.Errorf("pagerank: empty restart set")
	}
	n := g.NumNodes()
	for _, s := range restart {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("pagerank: restart node %d out of range [0,%d)", s, n)
		}
	}
	opts = opts.withDefaults()
	seed := make([]float64, n)
	w := 1 / float64(len(restart))
	for _, s := range restart {
		seed[s] += w
	}
	cur := make([]float64, n)
	copy(cur, seed)
	nxt := make([]float64, n)
	for iter := 0; iter < opts.MaxIters; iter++ {
		// nxt = λ·Pᵀ·cur + (1-λ)·seed, with dangling mass re-seeded.
		for i := range nxt {
			nxt[i] = 0
		}
		dangling := 0.0
		for v := 0; v < n; v++ {
			mass := cur[v]
			if mass == 0 {
				continue
			}
			// Derive the degree from the same row snapshot instead of a
			// separate Degree(v) call: the graph is live-writable, and two
			// lock acquisitions could straddle a write, leaving ws and d
			// inconsistent (an unnormalized transition row). Degree == row
			// sum by the symmetric-weight invariant.
			nbrs, ws := g.Neighbors(v)
			d := 0.0
			for _, w := range ws {
				d += w
			}
			if d == 0 {
				dangling += mass
				continue
			}
			inv := mass / d
			for k, u := range nbrs {
				// The graph is live: a row read mid-iteration can point at a
				// node admitted after n was read. Its mass stays with the
				// snapshot-sized vector (it will be seen next query).
				if u < len(nxt) {
					nxt[u] += ws[k] * inv
				}
			}
		}
		diff := 0.0
		for i := range nxt {
			val := opts.Damping*(nxt[i]+dangling*seed[i]) + (1-opts.Damping)*seed[i]
			diff += math.Abs(val - cur[i])
			nxt[i] = val
		}
		cur, nxt = nxt, cur
		if diff < opts.Tolerance {
			break
		}
	}
	return cur, nil
}

// Discounted computes DPPR item scores (Eq. 15): the personalized PageRank
// of each item divided by its popularity (rating frequency). Items never
// rated keep score 0 — the walk cannot reach them anyway.
func Discounted(g *graph.Bipartite, restart []int, opts Options) ([]float64, error) {
	ppr, err := Personalized(g, restart, opts)
	if err != nil {
		return nil, err
	}
	pop := g.ItemPopularity()
	out := make([]float64, len(pop))
	for i := range out {
		v := g.ItemNode(i)
		if pop[i] == 0 || v >= len(ppr) {
			continue // never rated, or admitted after the PPR solve
		}
		out[i] = ppr[v] / float64(pop[i])
	}
	return out, nil
}

// ForUser computes DPPR scores restarting from the user's rated item set
// S_q (falling back to the user node itself when the user has no ratings),
// which is how the baseline is queried in the experiments.
func ForUser(g *graph.Bipartite, u int, opts Options) ([]float64, error) {
	items, _ := g.UserItems(u)
	restart := make([]int, 0, len(items)+1)
	for _, i := range items {
		restart = append(restart, g.ItemNode(i))
	}
	if len(restart) == 0 {
		restart = append(restart, g.UserNode(u))
	}
	return Discounted(g, restart, opts)
}
