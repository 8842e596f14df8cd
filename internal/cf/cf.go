// Package cf holds the two neighborhood indexes the library still serves:
// the item-based cosine kNN index behind the "similar items" view, and the
// MostPopular non-personalized ranking — the popularity-biased baseline
// the paper's graph algorithms are designed to beat.
package cf

import (
	"fmt"
	"math"
	"sort"

	"longtailrec/internal/dataset"
)

// profile is a sparse rating vector keyed by user.
type profile map[int]float64

// neighbor couples a candidate with its similarity.
type neighbor struct {
	id  int
	sim float64
}

// ItemKNN is an item-based kNN index: cosine similarity over the
// item-user rating vectors, keeping each item's k most similar items.
type ItemKNN struct {
	data     *dataset.Dataset
	k        int
	profiles []profile // per item: user -> score
}

// NewItemKNN builds the index.
func NewItemKNN(d *dataset.Dataset, k int) (*ItemKNN, error) {
	if k < 1 {
		return nil, fmt.Errorf("cf: k %d, need >= 1", k)
	}
	m := &ItemKNN{data: d, k: k, profiles: make([]profile, d.NumItems())}
	for item := 0; item < d.NumItems(); item++ {
		rs := d.ItemRatings(item)
		p := make(profile, len(rs))
		for _, r := range rs {
			p[r.User] = r.Score
		}
		m.profiles[item] = p
	}
	return m, nil
}

// similarity is cosine over the item-user vectors.
func (m *ItemKNN) similarity(a, b int) float64 {
	pa, pb := m.profiles[a], m.profiles[b]
	if len(pa) > len(pb) {
		pa, pb = pb, pa
	}
	dot := 0.0
	for user, wa := range pa {
		if wb, ok := pb[user]; ok {
			dot += wa * wb
		}
	}
	if dot == 0 {
		return 0
	}
	na, nb := 0.0, 0.0
	for _, w := range pa {
		na += w * w
	}
	for _, w := range pb {
		nb += w * w
	}
	return dot / math.Sqrt(na*nb)
}

// SimilarItem pairs an item with its cosine similarity to a query item.
type SimilarItem struct {
	Item       int
	Similarity float64
}

// SimilarItems returns up to k items most similar to item (cosine over
// the item-user rating vectors), in descending similarity. Only items
// sharing at least one rater can have positive similarity, and the index
// keeps its top NewItemKNN-k neighbors per item, so the list may be
// shorter than k.
func (m *ItemKNN) SimilarItems(item, k int) ([]SimilarItem, error) {
	if item < 0 || item >= m.data.NumItems() {
		return nil, fmt.Errorf("cf: item %d out of range [0,%d)", item, m.data.NumItems())
	}
	if k < 1 {
		return nil, fmt.Errorf("cf: k %d, need >= 1", k)
	}
	nbrs := m.topSimilar(item)
	if len(nbrs) > k {
		nbrs = nbrs[:k]
	}
	out := make([]SimilarItem, len(nbrs))
	for i, nb := range nbrs {
		out[i] = SimilarItem{Item: nb.id, Similarity: nb.sim}
	}
	return out, nil
}

// topSimilar finds the k items most similar to item j among co-rated
// candidates.
func (m *ItemKNN) topSimilar(j int) []neighbor {
	cands := make(map[int]struct{})
	for user := range m.profiles[j] {
		for _, r := range m.data.UserRatings(user) {
			if r.Item != j {
				cands[r.Item] = struct{}{}
			}
		}
	}
	nbrs := make([]neighbor, 0, len(cands))
	for c := range cands {
		if s := m.similarity(j, c); s > 0 {
			nbrs = append(nbrs, neighbor{id: c, sim: s})
		}
	}
	sort.Slice(nbrs, func(a, b int) bool {
		if nbrs[a].sim != nbrs[b].sim {
			return nbrs[a].sim > nbrs[b].sim
		}
		return nbrs[a].id < nbrs[b].id
	})
	if len(nbrs) > m.k {
		nbrs = nbrs[:m.k]
	}
	return nbrs
}

// MostPopular scores every item by its rating frequency — the fully
// non-personalized baseline that any long-tail recommender must beat on
// novelty.
type MostPopular struct {
	pop []int
}

// NewMostPopular indexes item popularity.
func NewMostPopular(d *dataset.Dataset) *MostPopular {
	return &MostPopular{pop: d.ItemPopularity()}
}

// ScoreAll fills out[i] with the popularity of item i (identical for every
// user).
func (m *MostPopular) ScoreAll(_ int, out []float64) []float64 {
	if len(out) != len(m.pop) {
		out = make([]float64, len(m.pop))
	}
	for i, p := range m.pop {
		out[i] = float64(p)
	}
	return out
}
