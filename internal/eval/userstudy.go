package eval

import (
	"fmt"
	"math"

	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/synth"
)

// StudyOptions configure the simulated user study of §5.2.7.
type StudyOptions struct {
	// ListSize is recommendations per evaluator; <= 0 means 10.
	ListSize int
	// AwarenessExponent γ shapes how fast item awareness grows with
	// popularity percentile: aware = percentile^γ. γ=1 is linear; larger
	// γ concentrates awareness on the extreme head (only hits are known),
	// smaller γ makes even mid-popularity items widely known (film
	// posters, top lists). <= 0 means 2.5.
	AwarenessExponent float64
}

func (o StudyOptions) withDefaults() StudyOptions {
	if o.ListSize <= 0 {
		o.ListSize = 10
	}
	if o.AwarenessExponent <= 0 {
		o.AwarenessExponent = 2.5
	}
	return o
}

// StudyResult is one algorithm's Table 6 row.
type StudyResult struct {
	Name string
	// Preference (1–5): how well recommendations match the evaluator's
	// ground-truth taste.
	Preference float64
	// Novelty (0–1): fraction of recommendations the evaluator did not
	// already know.
	Novelty float64
	// Serendipity (1–5): pleasant surprise — taste match on unknown items.
	Serendipity float64
	// Score (1–5): overall rating, dominated by preference with a novelty
	// lift.
	Score float64
}

// UserStudy replaces the paper's 50 human movie-lovers with simulated
// evaluators whose ground truth comes from the synthetic world:
//
//   - Preference for item i is the evaluator's taste affinity mapped onto
//     the 1–5 scale.
//   - Awareness of i grows with its popularity percentile — evaluators
//     already know hit movies from posters, top lists and friends, exactly
//     the §5.2.7 explanation for PureSVD/LDA's low novelty. Novelty is the
//     mean unawareness.
//   - Serendipity is taste match weighted by unawareness, on 1–5.
//   - The overall Score blends preference with a mild serendipity bonus.
//
// Evaluators are the given panel of users; their rated items come from
// train (recommenders never see held-out data).
func UserStudy(recs []core.Recommender, world *synth.World, train *dataset.Dataset, evaluators []int, opts StudyOptions) ([]StudyResult, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("eval: no recommenders")
	}
	if len(evaluators) == 0 {
		return nil, fmt.Errorf("eval: no evaluators")
	}
	opts = opts.withDefaults()

	// Popularity percentile per item (fraction of items strictly less
	// popular), the basis of the awareness model.
	pop := train.ItemPopularity()
	percentile := popularityPercentiles(pop)
	aware := func(item int) float64 {
		return math.Pow(percentile[item], opts.AwarenessExponent)
	}

	out := make([]StudyResult, 0, len(recs))
	for _, rec := range recs {
		var prefSum, novSum, serSum, scoreSum float64
		var slots int
		for _, u := range evaluators {
			list, err := core.RecommendItems(rec, u, opts.ListSize)
			if err != nil {
				return nil, fmt.Errorf("eval: %s for evaluator %d: %w", rec.Name(), u, err)
			}
			for _, s := range list {
				affinity := world.TasteAffinity(u, s.Item)
				a := aware(s.Item)
				pref := 1 + 4*affinity
				nov := 1 - a
				ser := 1 + 4*affinity*(1-a)
				score := clamp(0.9*pref+0.1*ser, 1, 5)
				prefSum += pref
				novSum += nov
				serSum += ser
				scoreSum += score
				slots++
			}
		}
		if slots == 0 {
			out = append(out, StudyResult{Name: rec.Name()})
			continue
		}
		inv := 1 / float64(slots)
		out = append(out, StudyResult{
			Name:        rec.Name(),
			Preference:  prefSum * inv,
			Novelty:     novSum * inv,
			Serendipity: serSum * inv,
			Score:       scoreSum * inv,
		})
	}
	return out, nil
}

// popularityPercentiles maps raw popularity counts to each item's fraction
// of strictly-less-popular items, in [0, 1).
func popularityPercentiles(pop []int) []float64 {
	n := len(pop)
	// Counting sort over popularity values.
	maxPop := 0
	for _, p := range pop {
		if p > maxPop {
			maxPop = p
		}
	}
	counts := make([]int, maxPop+1)
	for _, p := range pop {
		counts[p]++
	}
	below := make([]int, maxPop+1)
	acc := 0
	for v := 0; v <= maxPop; v++ {
		below[v] = acc
		acc += counts[v]
	}
	out := make([]float64, n)
	for i, p := range pop {
		out[i] = float64(below[p]) / float64(n)
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
