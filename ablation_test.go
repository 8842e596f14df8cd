// Ablation benchmarks for the design choices DESIGN.md calls out:
// truncation depth τ, the entropy-cost signal itself, the user→item cost
// constant C, subgraph-vs-whole-graph ranking agreement, the four factor
// models on the long-tail recall protocol, and the spread (variance) of
// the absorbing-time ranking signal. Run with
// `go test -bench=Ablation -benchmem`.
package longtail_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"longtailrec"
	"longtailrec/internal/core"
	"longtailrec/internal/entropy"
	"longtailrec/internal/eval"
	"longtailrec/internal/markov"
	"longtailrec/internal/topk"
)

// BenchmarkAblationTau measures how the truncated ranking converges to the
// exact solution as τ grows (the paper claims τ = 15 suffices).
func BenchmarkAblationTau(b *testing.B) {
	env := benchEnv(b, "movielens")
	train := env.Split.Train
	g := train.Graph()
	users := env.Panel[:10]
	exact := core.NewAbsorbingTime(g, core.WalkOptions{Exact: true})
	exactTop := make(map[int][]core.Scored)
	for _, u := range users {
		recs, err := longtail.RecommendItems(exact, u, 10)
		if err != nil {
			b.Fatal(err)
		}
		exactTop[u] = recs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tau := range []int{2, 5, 10, 15, 30} {
			trunc := core.NewAbsorbingTime(g, core.WalkOptions{Iterations: tau})
			agree, total := 0, 0
			for _, u := range users {
				recs, err := longtail.RecommendItems(trunc, u, 10)
				if err != nil {
					b.Fatal(err)
				}
				want := map[int]struct{}{}
				for _, r := range exactTop[u] {
					want[r.Item] = struct{}{}
				}
				for _, r := range recs {
					total++
					if _, ok := want[r.Item]; ok {
						agree++
					}
				}
			}
			if i == 0 {
				fmt.Printf("tau=%2d: top-10 overlap with exact solve %.0f%%\n",
					tau, 100*float64(agree)/float64(total))
			}
		}
	}
}

// BenchmarkAblationEntropySignal compares AC1 with real item-based
// entropies against AC1 with the same entropies randomly shuffled across
// users — isolating whether the entropy signal itself (not just having
// non-uniform costs) drives the accuracy gain.
func BenchmarkAblationEntropySignal(b *testing.B) {
	env := benchEnv(b, "movielens")
	train := env.Split.Train
	g := train.Graph()
	ents := entropy.AllItemBased(train)
	shuffled := append([]float64(nil), ents...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	real1, err := core.NewAbsorbingCost(g, "AC1-real", ents, core.CostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sham, err := core.NewAbsorbingCost(g, "AC1-shuffled", shuffled, core.CostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pop := train.ItemPopularity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range []longtail.Recommender{real1, sham} {
			meanPop, slots := 0.0, 0
			for _, u := range env.Panel[:15] {
				recs, err := longtail.RecommendItems(rec, u, 10)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					meanPop += float64(pop[r.Item])
					slots++
				}
			}
			if i == 0 && slots > 0 {
				fmt.Printf("%s: mean recommended popularity %.1f\n", rec.Name(), meanPop/float64(slots))
			}
		}
	}
}

// BenchmarkAblationUserCost sweeps the C constant of Eq. 9 (the cost of a
// user→item transition) and reports how the recommended popularity moves.
func BenchmarkAblationUserCost(b *testing.B) {
	env := benchEnv(b, "movielens")
	train := env.Split.Train
	g := train.Graph()
	ents := entropy.AllItemBased(train)
	pop := train.ItemPopularity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{0.25, 0.5, 1, 2, 4} {
			rec, err := core.NewAbsorbingCost(g, fmt.Sprintf("AC1-C%.2g", c), ents,
				core.CostOptions{UserCost: c})
			if err != nil {
				b.Fatal(err)
			}
			meanPop, slots := 0.0, 0
			for _, u := range env.Panel[:10] {
				recs, err := longtail.RecommendItems(rec, u, 10)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					meanPop += float64(pop[r.Item])
					slots++
				}
			}
			if i == 0 && slots > 0 {
				fmt.Printf("C=%.2f: mean recommended popularity %.1f\n", c, meanPop/float64(slots))
			}
		}
	}
}

// BenchmarkAblationFactorModels runs the long-tail Recall@N protocol over
// the four factorization baselines (PureSVD, BiasedMF, SVD++, AsySVD) —
// probing the Cremonesi et al. claim §5.1.1 relies on when it picks
// PureSVD as the representative matrix-factorization competitor. (On the
// small synthetic corpus the SGD models can out-recall PureSVD; the paper's
// point — that none of them reach the tail the way the walk methods do —
// is what Figure 5 tests.)
func BenchmarkAblationFactorModels(b *testing.B) {
	env := benchEnv(b, "movielens")
	var recs []longtail.Recommender
	for _, name := range []string{"PureSVD", "BiasedMF", "SVDPP", "AsySVD"} {
		r, err := env.Sys.Algorithm(name)
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, r)
	}
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := eval.Recall(recs, env.Split.Train, env.Split.Test,
			eval.RecallOptions{NumNegatives: scale.Negatives, MaxN: scale.MaxN, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, res := range results {
				fmt.Printf("%-9s recall@10=%.3f recall@50=%.3f\n",
					res.Name, res.Recall[9], res.Recall[scale.MaxN-1])
			}
		}
	}
}

// BenchmarkAblationTimeVariance measures the spread of the absorbing-time
// ranking signal: for a panel of users, the standard deviation of the
// first-passage time at the top-10 recommended items versus at the 10 most
// popular items. Tail items are reached through fewer paths, so their
// times are intrinsically noisier — this quantifies how much.
func BenchmarkAblationTimeVariance(b *testing.B) {
	env := benchEnv(b, "movielens")
	train := env.Split.Train
	g := train.Graph()
	chain, err := markov.NewChain(g.Adjacency())
	if err != nil {
		b.Fatal(err)
	}
	at := core.NewAbsorbingTime(g, core.WalkOptions{MaxSubgraphItems: train.NumItems() + 1})
	pop := train.ItemPopularity()
	sel := topk.NewSelector(10)
	for i, p := range pop {
		sel.Offer(i, float64(p))
	}
	top := make([]int, 0, 10)
	for _, it := range sel.Take() {
		top = append(top, it.ID)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var recSD, headSD float64
		var recN, headN int
		for _, u := range env.Panel[:5] {
			absorb := make([]int, 0, 8)
			for item := range train.UserItemSet(u) {
				absorb = append(absorb, g.ItemNode(item))
			}
			sd, err := chain.AbsorbingTimeStdDev(absorb)
			if err != nil {
				b.Fatal(err)
			}
			recs, err := longtail.RecommendItems(at, u, 10)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range recs {
				if v := sd[g.ItemNode(r.Item)]; !math.IsInf(v, 1) {
					recSD += v
					recN++
				}
			}
			for _, item := range top {
				if v := sd[g.ItemNode(item)]; !math.IsInf(v, 1) {
					headSD += v
					headN++
				}
			}
		}
		if i == 0 && recN > 0 && headN > 0 {
			fmt.Printf("mean absorbing-time stddev: recommended tail items %.1f, head items %.1f\n",
				recSD/float64(recN), headSD/float64(headN))
		}
	}
}

// BenchmarkAblationSubgraph measures how much the µ-bounded subgraph
// ranking agrees with the whole-graph ranking, and its speedup — the
// Algorithm 1 trade-off.
func BenchmarkAblationSubgraph(b *testing.B) {
	env := benchEnv(b, "movielens")
	train := env.Split.Train
	g := train.Graph()
	users := env.Panel[:10]
	whole := core.NewAbsorbingTime(g, core.WalkOptions{MaxSubgraphItems: train.NumItems() + 1})
	wholeTop := map[int]map[int]struct{}{}
	for _, u := range users {
		recs, err := longtail.RecommendItems(whole, u, 10)
		if err != nil {
			b.Fatal(err)
		}
		set := map[int]struct{}{}
		for _, r := range recs {
			set[r.Item] = struct{}{}
		}
		wholeTop[u] = set
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mu := range []int{100, 300, 600, 1200} {
			sub := core.NewAbsorbingTime(g, core.WalkOptions{MaxSubgraphItems: mu})
			agree, total := 0, 0
			for _, u := range users {
				recs, err := longtail.RecommendItems(sub, u, 10)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					total++
					if _, ok := wholeTop[u][r.Item]; ok {
						agree++
					}
				}
			}
			if i == 0 && total > 0 {
				fmt.Printf("mu=%4d: top-10 overlap with whole graph %.0f%%\n",
					mu, 100*float64(agree)/float64(total))
			}
		}
	}
}
