// Beyond-accuracy list metrics: novelty, serendipity, intra-list
// similarity, and catalog coverage. These quantify the claims the paper
// makes qualitatively — that the walk-based recommenders surface items
// users would not have found (Table 6's Novelty/Serendipity columns)
// without collapsing every user onto the same blockbusters (§5.2.3) — in
// the standard beyond-accuracy vocabulary of the recommender-systems
// literature.

package eval

import (
	"fmt"
	"math"

	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/ontology"
)

// BeyondAccuracy aggregates one algorithm's beyond-accuracy behaviour over
// a test-user panel.
type BeyondAccuracy struct {
	Name string
	// Novelty is the mean self-information of recommended items,
	// −log2(pop(i)/numUsers), averaged over slots: recommending an item
	// every user has rated scores ~0 bits; a one-rater item on a
	// 1000-user corpus scores ~10 bits.
	Novelty float64
	// Serendipity blends unexpectedness with relevance: the mean, over
	// slots, of unexp(i) = novelty share × ontology relevance to the
	// user. Without an ontology it degrades to pure unexpectedness.
	Serendipity float64
	// IntraListSimilarity is the mean pairwise ontology similarity inside
	// each user's list (lower = more diverse lists). Zero when no
	// ontology was supplied.
	IntraListSimilarity float64
	// Coverage is the fraction of the catalog recommended to at least one
	// panel user (aggregate diversity's raw form).
	Coverage float64
	// ColdStartShare is the fraction of recommended slots filled by items
	// with at most coldThreshold ratings.
	ColdStartShare float64
	// UsersServed counts users who received at least one recommendation.
	UsersServed int
}

// BeyondAccuracyOptions configure MeasureBeyondAccuracy.
type BeyondAccuracyOptions struct {
	// ListSize is the per-user list length; <= 0 means 10.
	ListSize int
	// Ontology, when non-nil, grounds serendipity's relevance term and
	// the intra-list similarity.
	Ontology *ontology.Tree
	// ColdThreshold is the maximum popularity of a "cold" item; <= 0
	// means 3.
	ColdThreshold int
}

func (o BeyondAccuracyOptions) withDefaults() BeyondAccuracyOptions {
	if o.ListSize <= 0 {
		o.ListSize = 10
	}
	if o.ColdThreshold <= 0 {
		o.ColdThreshold = 3
	}
	return o
}

// MeasureBeyondAccuracy runs every recommender over the panel and reports
// novelty, serendipity, intra-list similarity, coverage and cold-start
// share of its lists.
func MeasureBeyondAccuracy(recs []core.Recommender, train *dataset.Dataset, users []int, opts BeyondAccuracyOptions) ([]BeyondAccuracy, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("eval: no recommenders")
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("eval: empty user panel")
	}
	opts = opts.withDefaults()
	pop := train.ItemPopularity()
	numUsers := float64(train.NumUsers())

	out := make([]BeyondAccuracy, 0, len(recs))
	for _, rec := range recs {
		m := BeyondAccuracy{Name: rec.Name()}
		unique := make(map[int]struct{})
		var novTotal, serTotal, ilsTotal float64
		var slots, ilsLists, coldSlots int
		for _, u := range users {
			list, err := core.RecommendItems(rec, u, opts.ListSize)
			if err != nil {
				return nil, fmt.Errorf("eval: %s recommending for user %d: %w", rec.Name(), u, err)
			}
			if len(list) == 0 {
				continue
			}
			m.UsersServed++
			items := make([]int, len(list))
			var prefs []int
			if opts.Ontology != nil {
				for i := range train.UserItemSet(u) {
					prefs = append(prefs, i)
				}
			}
			for n, s := range list {
				items[n] = s.Item
				unique[s.Item] = struct{}{}
				slots++
				nov := selfInformation(pop[s.Item], numUsers)
				novTotal += nov
				// Normalize novelty to [0,1] by the corpus maximum
				// (a single-rating item) for the serendipity blend.
				unexp := nov / selfInformation(1, numUsers)
				if opts.Ontology != nil {
					unexp *= opts.Ontology.UserSimilarity(prefs, s.Item)
				}
				serTotal += unexp
				if pop[s.Item] <= opts.ColdThreshold {
					coldSlots++
				}
			}
			if opts.Ontology != nil && len(items) >= 2 {
				ilsTotal += intraListSimilarity(opts.Ontology, items)
				ilsLists++
			}
		}
		if slots > 0 {
			m.Novelty = novTotal / float64(slots)
			m.Serendipity = serTotal / float64(slots)
			m.ColdStartShare = float64(coldSlots) / float64(slots)
		}
		if ilsLists > 0 {
			m.IntraListSimilarity = ilsTotal / float64(ilsLists)
		}
		m.Coverage = float64(len(unique)) / float64(train.NumItems())
		out = append(out, m)
	}
	return out, nil
}

// selfInformation is −log2(pop/numUsers), with unrated items treated as
// popularity 1 (the most novel an observable item can be).
func selfInformation(pop int, numUsers float64) float64 {
	if pop < 1 {
		pop = 1
	}
	p := float64(pop) / numUsers
	if p > 1 {
		p = 1
	}
	return -math.Log2(p)
}

// intraListSimilarity averages ontology similarity over all unordered
// pairs in one list.
func intraListSimilarity(tree *ontology.Tree, items []int) float64 {
	total, pairs := 0.0, 0
	for a := 0; a < len(items); a++ {
		for b := a + 1; b < len(items); b++ {
			total += tree.ItemSimilarity(items[a], items[b])
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}
