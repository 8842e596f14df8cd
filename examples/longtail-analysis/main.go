// Long-tail analysis: visualize the Pareto structure of a rating corpus
// (the Figure 1 hits-vs-niche curve) and quantify how well each algorithm
// covers the tail — the "help me find it" imperative from the paper's
// introduction.
//
// Run with: go run ./examples/longtail-analysis
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"

	"longtailrec"
	"longtailrec/internal/lda"
)

func main() {
	world, err := longtail.GenerateMovieLensLike(13)
	if err != nil {
		log.Fatal(err)
	}
	data := world.Data

	// The Figure 1 curve: cumulative rating share vs catalog share.
	pop := data.ItemPopularity()
	sorted := append([]int(nil), pop...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, p := range sorted {
		total += p
	}
	fmt.Println("Pareto curve (catalog share -> rating share):")
	acc := 0
	next := 0.1
	for i, p := range sorted {
		acc += p
		share := float64(i+1) / float64(len(sorted))
		for share >= next-1e-9 && next <= 1.0 {
			ratingShare := float64(acc) / float64(total)
			bar := strings.Repeat("#", int(ratingShare*40))
			fmt.Printf("  top %3.0f%% of items -> %5.1f%% of ratings %s\n", next*100, ratingShare*100, bar)
			next += 0.1
		}
	}

	tail := data.LongTailItems(0.2)
	fmt.Printf("\n80/20 split: %d of %d items (%.0f%%) form the 20%%-of-ratings long tail\n\n",
		len(tail), data.NumItems(), 100*float64(len(tail))/float64(data.NumItems()))

	// Tail coverage per algorithm over a user panel.
	cfg := longtail.DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 16, Iterations: 30, Seed: 3}
	sys, err := longtail.NewSystem(data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	panel, err := data.SampleUsers(rand.New(rand.NewSource(4)), 50, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("long-tail coverage of top-10 lists (50 users):")
	fmt.Printf("%-12s %-12s %-14s %s\n", "algorithm", "tail slots", "unique tail", "tail share of recs")
	for _, name := range []string{"AC2", "AT", "HT", "DPPR", "PureSVD", "LDA"} {
		rec, err := sys.Algorithm(name)
		if err != nil {
			log.Fatal(err)
		}
		slots, totalSlots := 0, 0
		uniqueTail := map[int]struct{}{}
		for _, u := range panel {
			recs, err := longtail.RecommendItems(rec, u, 10)
			if err != nil {
				log.Fatal(err)
			}
			for _, r := range recs {
				totalSlots++
				if _, niche := tail[r.Item]; niche {
					slots++
					uniqueTail[r.Item] = struct{}{}
				}
			}
		}
		share := 0.0
		if totalSlots > 0 {
			share = float64(slots) / float64(totalSlots)
		}
		fmt.Printf("%-12s %-12d %-14d %5.1f%%\n", name, slots, len(uniqueTail), share*100)
	}
	fmt.Println("\nGraph-walk algorithms route most recommendation slots into the tail,")
	fmt.Println("turning shelf space that factor models never touch into demand.")
}
