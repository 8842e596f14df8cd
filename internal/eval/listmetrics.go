package eval

import (
	"fmt"
	"time"

	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/ontology"
)

// ListOptions configure the §5.2.2–§5.2.6 panel experiments.
type ListOptions struct {
	// ListSize is how many items each user receives (the paper uses 10).
	// <= 0 means 10.
	ListSize int
	// Ontology enables the Table 3 similarity measurement when non-nil.
	Ontology *ontology.Tree
	// Parallelism > 1 computes each recommender's panel lists through
	// core.ServeBatch across that many workers.
	// SecondsPerUser is then total wall-clock divided by panel size — an
	// amortized throughput figure rather than the isolated per-query
	// latency the sequential default measures (keep the default for
	// Table 5 reproductions).
	Parallelism int
	// Query is the request template every panel query derives from: the
	// evaluation is expressed as core.Requests with this frozen option
	// set (Ctx bounds the whole run; ExcludeItems / CandidateItems /
	// LongTailOnly scope every list identically). User and K are
	// overwritten per query from the panel and ListSize; AllowFallback
	// is ignored — a user no algorithm can serve fails the run, as the
	// protocols require.
	Query core.Request
}

func (o ListOptions) withDefaults() ListOptions {
	if o.ListSize <= 0 {
		o.ListSize = 10
	}
	return o
}

// ListMetrics aggregates one algorithm's behaviour over a test-user panel.
type ListMetrics struct {
	Name string
	// PopularityAt[n-1] is the mean rating-frequency of the item at
	// position n, averaged over users (Figure 6's y-axis).
	PopularityAt []float64
	// MeanPopularity averages popularity over all recommended slots.
	MeanPopularity float64
	// Diversity is Eq. 17 with the paper's normalization: unique items
	// recommended across the panel divided by the ideal maximum
	// min(catalog, users×listSize) (Table 2).
	Diversity float64
	// Similarity is the Table 3 ontology relevance (0 when no ontology
	// was supplied).
	Similarity float64
	// SecondsPerUser is the mean wall-clock recommendation latency
	// (Table 5's quantity).
	SecondsPerUser float64
	// UsersServed counts users who received at least one recommendation.
	UsersServed int
}

// Lists runs every recommender over the user panel and measures the
// popularity, diversity, similarity and latency of its top-N lists. The
// panel users must exist in train (which supplies item popularity and the
// preference sets for the similarity measurement).
func Lists(recs []core.Recommender, train *dataset.Dataset, users []int, opts ListOptions) ([]ListMetrics, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("eval: no recommenders")
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("eval: empty user panel")
	}
	opts = opts.withDefaults()
	pop := train.ItemPopularity()

	ideal := len(users) * opts.ListSize
	if train.NumItems() < ideal {
		ideal = train.NumItems()
	}

	out := make([]ListMetrics, 0, len(recs))
	for _, rec := range recs {
		m := ListMetrics{Name: rec.Name(), PopularityAt: make([]float64, opts.ListSize)}
		posCount := make([]int, opts.ListSize)
		unique := make(map[int]struct{})
		var popTotal float64
		var popSlots int
		var simTotal float64
		var simUsers int
		var elapsed time.Duration
		// Every panel query is the same frozen request template, only the
		// user varies: the evaluation measures one option set end to end.
		mkReq := func(u int) core.Request {
			req := opts.Query
			req.User = u
			req.K = opts.ListSize
			req.AllowFallback = false
			return req
		}
		var batched []core.Response
		if opts.Parallelism > 1 {
			reqs := make([]core.Request, len(users))
			for i, u := range users {
				reqs[i] = mkReq(u)
			}
			start := time.Now()
			resps, err := core.ServeBatch(reqs, opts.Parallelism, func(req core.Request) (core.Response, error) {
				return rec.Recommend(req, nil)
			})
			elapsed = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("eval: %s batch recommending: %w", rec.Name(), err)
			}
			batched = resps
		}
		for ui, u := range users {
			var list []core.Scored
			if batched != nil {
				// The batch path maps cold users to zero Responses; surface
				// them as the same error the sequential path below reports,
				// so the Parallelism knob never changes which panels are
				// accepted.
				if batched[ui].Algo == "" {
					return nil, fmt.Errorf("eval: %s recommending for user %d: %w", rec.Name(), u, core.ErrColdUser)
				}
				list = batched[ui].Items
			} else {
				start := time.Now()
				resp, err := rec.Recommend(mkReq(u), nil)
				elapsed += time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("eval: %s recommending for user %d: %w", rec.Name(), u, err)
				}
				list = resp.Items
			}
			if len(list) == 0 {
				continue
			}
			m.UsersServed++
			items := make([]int, len(list))
			for n, s := range list {
				items[n] = s.Item
				unique[s.Item] = struct{}{}
				m.PopularityAt[n] += float64(pop[s.Item])
				posCount[n]++
				popTotal += float64(pop[s.Item])
				popSlots++
			}
			if opts.Ontology != nil {
				prefs := make([]int, 0, 16)
				for i := range train.UserItemSet(u) {
					prefs = append(prefs, i)
				}
				simTotal += opts.Ontology.MeanListSimilarity(prefs, items)
				simUsers++
			}
		}
		for n := range m.PopularityAt {
			if posCount[n] > 0 {
				m.PopularityAt[n] /= float64(posCount[n])
			}
		}
		if popSlots > 0 {
			m.MeanPopularity = popTotal / float64(popSlots)
		}
		m.Diversity = float64(len(unique)) / float64(ideal)
		if simUsers > 0 {
			m.Similarity = simTotal / float64(simUsers)
		}
		m.SecondsPerUser = elapsed.Seconds() / float64(len(users))
		out = append(out, m)
	}
	return out, nil
}
