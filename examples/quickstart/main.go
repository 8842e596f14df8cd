// Quickstart: the paper's Figure 2 worked example in a dozen lines.
//
// Five users rated six movies; U5 likes action films (M2, M3). A classic
// collaborative filter would push the locally popular drama M1, but the
// hitting-time ranking surfaces the niche action movie M4 — the paper's
// §3.3 example, H(U5|M4) < H(U5|M1) < H(U5|M5) < H(U5|M6).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"longtailrec"
)

func main() {
	// The Figure 2 rating matrix (users 0-4 = U1-U5, items 0-5 = M1-M6).
	ratings := []longtail.Rating{
		{User: 0, Item: 0, Score: 5}, {User: 0, Item: 1, Score: 3}, {User: 0, Item: 4, Score: 3}, {User: 0, Item: 5, Score: 5},
		{User: 1, Item: 0, Score: 5}, {User: 1, Item: 1, Score: 4}, {User: 1, Item: 2, Score: 5}, {User: 1, Item: 4, Score: 4}, {User: 1, Item: 5, Score: 5},
		{User: 2, Item: 0, Score: 4}, {User: 2, Item: 1, Score: 5}, {User: 2, Item: 2, Score: 4},
		{User: 3, Item: 2, Score: 5}, {User: 3, Item: 3, Score: 5},
		{User: 4, Item: 1, Score: 4}, {User: 4, Item: 2, Score: 5},
	}
	data, err := longtail.NewDataset(5, 6, ratings)
	if err != nil {
		log.Fatal(err)
	}

	cfg := longtail.DefaultConfig()
	cfg.Walk.Exact = true // tiny graph: solve the linear system exactly
	sys, err := longtail.NewSystem(data, cfg)
	if err != nil {
		log.Fatal(err)
	}

	const u5 = 4
	fmt.Println("Recommendations for U5 (likes action: rated M2, M3):")

	recs, err := longtail.RecommendItems(sys.HT(), u5, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nHitting Time (paper §3.3 — score is -H(U5|M)):")
	for rank, r := range recs {
		fmt.Printf("  %d. M%d  hitting time %.1f\n", rank+1, r.Item+1, -r.Score)
	}

	// For contrast: what a pure popularity ranking would suggest.
	popRecs, err := longtail.RecommendItems(sys.MostPopular(), u5, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMostPopular would instead push M%d — the generic hit.\n", popRecs[0].Item+1)
	fmt.Printf("Hitting time correctly prefers the niche action movie M%d.\n", recs[0].Item+1)

	// Why M4? Decompose the recommendation over U5's rated movies.
	anchors, err := sys.Explain(u5, recs[0].Item)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nWhy? Walks from M4 reach U5's taste through:")
	for _, a := range anchors {
		fmt.Printf("  M%d with absorption share %.0f%%\n", a.Item+1, 100*a.Probability)
	}
}
