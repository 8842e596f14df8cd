// MovieLens scenario: run the full algorithm suite on a MovieLens-shaped
// corpus and compare what each algorithm actually recommends — how popular
// the suggestions are, and whether they still match the user's taste.
//
// By default the example generates the calibrated synthetic corpus
// (DESIGN.md §4); pass the path to a real MovieLens 1M ratings.dat to run
// on the original data:
//
//	go run ./examples/movielens            # synthetic
//	go run ./examples/movielens ratings.dat
package main

import (
	"fmt"
	"log"
	"os"

	"longtailrec"
	"longtailrec/internal/lda"
)

func main() {
	var (
		data *longtail.Dataset
		err  error
	)
	if len(os.Args) > 1 {
		loaded, lerr := longtail.LoadMovieLensFile(os.Args[1])
		if lerr != nil {
			log.Fatal(lerr)
		}
		data = loaded.Data
		fmt.Printf("loaded %s\n", os.Args[1])
	} else {
		world, gerr := longtail.GenerateMovieLensLike(7)
		if gerr != nil {
			log.Fatal(gerr)
		}
		data = world.Data
		fmt.Println("generated MovieLens-shaped synthetic corpus (pass ratings.dat to use real data)")
	}
	err = runSuite(data)
	if err != nil {
		log.Fatal(err)
	}
}

func runSuite(data *longtail.Dataset) error {
	s := data.Summarize()
	fmt.Printf("%d users, %d items, %d ratings (density %.2f%%); %.0f%% of items form the 20%% long tail\n\n",
		s.NumUsers, s.NumItems, s.NumRatings, 100*s.Density, 100*s.TailItemFraction)

	cfg := longtail.DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 16, Iterations: 40, Seed: 11}
	sys, err := longtail.NewSystem(data, cfg)
	if err != nil {
		return err
	}

	// Pick the first user with a healthy profile.
	user := -1
	for u := 0; u < data.NumUsers(); u++ {
		if data.UserDegree(u) >= 20 {
			user = u
			break
		}
	}
	if user < 0 {
		return fmt.Errorf("no user with >= 20 ratings")
	}
	pop := data.ItemPopularity()
	tail := data.LongTailItems(0.2)

	fmt.Printf("top-10 recommendations for user %d (%d ratings):\n\n", user, data.UserDegree(user))
	fmt.Printf("%-10s %-14s %-12s %s\n", "algorithm", "avg popularity", "tail items", "top-3 items (popularity)")
	for _, name := range []string{"AC2", "AC1", "AT", "HT", "DPPR", "PureSVD", "LDA", "MostPopular"} {
		rec, err := sys.Algorithm(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		recs, err := longtail.RecommendItems(rec, user, 10)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		meanPop, inTail := 0.0, 0
		for _, r := range recs {
			meanPop += float64(pop[r.Item])
			if _, niche := tail[r.Item]; niche {
				inTail++
			}
		}
		if len(recs) > 0 {
			meanPop /= float64(len(recs))
		}
		top3 := ""
		for i := 0; i < 3 && i < len(recs); i++ {
			top3 += fmt.Sprintf("#%d(%d) ", recs[i].Item, pop[recs[i].Item])
		}
		fmt.Printf("%-10s %-14.1f %2d/10        %s\n", name, meanPop, inTail, top3)
	}
	fmt.Println("\nThe graph algorithms (AC2/AC1/AT/HT) fill their lists from the long tail;")
	fmt.Println("PureSVD/LDA/MostPopular push the head — the paper's Figure 6 in miniature.")
	return nil
}
