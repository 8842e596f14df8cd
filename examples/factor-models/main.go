// Factor-model comparison: the §5.1.1 choice of PureSVD, re-run.
//
// The paper picks PureSVD as its matrix-factorization competitor because
// Cremonesi et al. (RecSys 2010) found it beats the SGD models (regularized
// biased MF, SVD++, AsySVD) on top-N tasks. This example trains all four on
// the synthetic MovieLens-shaped corpus, runs the long-tail Recall@N
// protocol, and then shows the paper's real point: whichever factor model
// wins, the walk-based AC2 reaches the tail none of them do.
//
// Run with: go run ./examples/factor-models
package main

import (
	"fmt"
	"log"
	"math/rand"

	"longtailrec"
	"longtailrec/internal/eval"
	"longtailrec/internal/mf"
)

func main() {
	world, err := longtail.GenerateMovieLensLike(7)
	if err != nil {
		log.Fatal(err)
	}
	split, err := world.Data.SplitLongTailTest(rand.New(rand.NewSource(7)), 60, 5, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	cfg := longtail.DefaultConfig()
	cfg.LDA.NumTopics = 8
	cfg.LDA.Iterations = 30
	sys, err := longtail.NewSystem(split.Train, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Every factor baseline, plus AC2 for the punchline.
	var recs []longtail.Recommender
	for _, name := range []string{"PureSVD", "BiasedMF", "SVDPP", "AsySVD", "AC2"} {
		r, err := sys.Algorithm(name)
		if err != nil {
			log.Fatal(err)
		}
		recs = append(recs, r)
	}

	results, err := eval.Recall(recs, split.Train, split.Test, eval.RecallOptions{
		NumNegatives: 300, MaxN: 50, Seed: 7, Parallelism: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("long-tail Recall@N, %d held-out 5-star tail ratings, 300 negatives each\n\n", len(split.Test))
	fmt.Printf("%-10s %8s %8s %8s\n", "model", "R@10", "R@20", "R@50")
	for _, r := range results {
		fmt.Printf("%-10s %8.3f %8.3f %8.3f\n", r.Name, r.Recall[9], r.Recall[19], r.Recall[49])
	}

	// The RMSE view: ranking quality and rating-prediction quality are
	// different contests (Cremonesi et al.'s observation).
	opts := mf.DefaultOptions()
	opts.Seed = 7
	biased, err := mf.TrainBiasedMF(split.Train, opts)
	if err != nil {
		log.Fatal(err)
	}
	svdpp, err := mf.TrainSVDPP(split.Train, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheld-out RMSE:  BiasedMF %.3f   SVD++ %.3f\n",
		mf.RMSE(biased, split.Test), mf.RMSE(svdpp, split.Test))

	// Popularity of what each model actually recommends: the tail gap.
	pop := split.Train.ItemPopularity()
	users, err := split.Train.SampleUsers(rand.New(rand.NewSource(9)), 40, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmean popularity of top-10 recommendations over %d users:\n", len(users))
	for _, rec := range recs {
		total, slots := 0.0, 0
		for _, u := range users {
			list, err := longtail.RecommendItems(rec, u, 10)
			if err != nil {
				log.Fatal(err)
			}
			for _, s := range list {
				total += float64(pop[s.Item])
				slots++
			}
		}
		fmt.Printf("  %-10s %6.1f ratings/item\n", rec.Name(), total/float64(slots))
	}
	fmt.Println("\nThe factor models fight over the head; AC2 recommends from the tail.")
}
