package eval

import (
	"fmt"
	"sort"

	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
)

// SalesDiversity quantifies the §5.2.3 concern — recommenders creating a
// rich-get-richer concentration of demand — with the aggregate measures
// used in the sales-diversity literature the paper cites (Fleder &
// Hosanagar): the Gini coefficient of recommendation exposure across the
// catalog, catalog coverage, and the share of recommendation slots that
// land in the long tail.
type SalesDiversity struct {
	Name string
	// Gini is the Gini coefficient of per-item recommendation counts over
	// the whole catalog: 0 = perfectly even exposure, 1 = all exposure on
	// one item. Popularity-pushing recommenders approach 1.
	Gini float64
	// Coverage is the fraction of the catalog recommended at least once.
	Coverage float64
	// TailShare is the fraction of recommendation slots filled with
	// long-tail items (tail defined by the 20%-of-ratings rule).
	TailShare float64
	// Slots is the number of recommendations measured.
	Slots int
}

// MeasureSalesDiversity runs every recommender over the user panel and
// aggregates exposure statistics across the catalog.
func MeasureSalesDiversity(recs []core.Recommender, train *dataset.Dataset, users []int, listSize int) ([]SalesDiversity, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("eval: no recommenders")
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("eval: empty user panel")
	}
	if listSize <= 0 {
		listSize = 10
	}
	tail := train.LongTailItems(0.2)
	out := make([]SalesDiversity, 0, len(recs))
	for _, rec := range recs {
		exposure := make([]int, train.NumItems())
		slots, tailSlots, covered := 0, 0, 0
		for _, u := range users {
			list, err := core.RecommendItems(rec, u, listSize)
			if err != nil {
				return nil, fmt.Errorf("eval: %s for user %d: %w", rec.Name(), u, err)
			}
			for _, s := range list {
				if exposure[s.Item] == 0 {
					covered++
				}
				exposure[s.Item]++
				slots++
				if _, niche := tail[s.Item]; niche {
					tailSlots++
				}
			}
		}
		sd := SalesDiversity{Name: rec.Name(), Slots: slots}
		if slots > 0 {
			sd.Gini = giniCoefficient(exposure)
			sd.Coverage = float64(covered) / float64(train.NumItems())
			sd.TailShare = float64(tailSlots) / float64(slots)
		}
		out = append(out, sd)
	}
	return out, nil
}

// giniCoefficient computes the Gini index of a non-negative count vector
// using the sorted-rank formula G = (2·Σ_i i·x_(i))/(n·Σx) − (n+1)/n,
// with x_(i) ascending and i starting at 1.
func giniCoefficient(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	xs := make([]float64, n)
	total := 0.0
	for i, c := range counts {
		xs[i] = float64(c)
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(xs)
	weighted := 0.0
	for i, x := range xs {
		weighted += float64(i+1) * x
	}
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}
