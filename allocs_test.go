//go:build !race

package longtail

import (
	"math/rand"
	"testing"

	"longtailrec/internal/core"
	"longtailrec/internal/lda"
)

// TestWalkRecommendAllocs holds a warm AT and AC2 query at the walk hot
// path's allocation counts, on both sides of the component the engine
// keeps: users of one island in turn reuse it, users of alternating
// islands rebuild it on every query, which costs time and one allocation
// (the fresh extraction's CSR view). Recommend holds at 25 (the rule
// BenchmarkQueryAT/AC2 print in `make bench`); ScoreItems and
// ScoreItemsCompact at 2, the caller's copy of the scores and that view.
// Everything else lives in the pooled scratch each query borrows, so one
// that stops returning it shows here. Compiled out under -race, whose
// instrumentation allocates.
func TestWalkRecommendAllocs(t *testing.T) {
	const islands, users, items = 2, 40, 60
	rng := rand.New(rand.NewSource(25))
	var ratings []Rating
	for u := 0; u < islands*users; u++ {
		seen := map[int]bool{}
		for k := 0; k < 8; k++ {
			i := (u/users)*items + rng.Intn(items)
			if !seen[i] {
				seen[i] = true
				ratings = append(ratings, Rating{User: u, Item: i, Score: float64(1 + rng.Intn(5))})
			}
		}
	}
	d, err := NewDataset(islands*users, islands*items, ratings)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 4, Alpha: 0.5, Iterations: 10, Seed: 25}
	sys, err := NewSystem(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"AT", "AC2"} {
		rec, err := sys.Algorithm(algo)
		if err != nil {
			t.Fatal(err)
		}
		compact, ok := rec.(interface {
			ScoreItemsCompact(u int) ([]core.ItemScore, error)
		})
		if !ok {
			t.Fatalf("%s: no ScoreItemsCompact", algo)
		}
		for _, q := range []struct {
			name  string
			bound float64
			run   func(u int) error
		}{
			{"Recommend", 25, func(u int) error { _, err := RecommendItems(rec, u, 10); return err }},
			{"ScoreItems", 2, func(u int) error { _, err := rec.ScoreItems(u); return err }},
			{"ScoreItemsCompact", 2, func(u int) error { _, err := compact.ScoreItemsCompact(u); return err }},
		} {
			for name, user := range map[string]func(n int) int{
				"one island (reuse)":            func(n int) int { return n % users },
				"alternating islands (rebuild)": func(n int) int { return (n%2)*users + n%users },
			} {
				n := 0
				query := func() {
					if err := q.run(user(n)); err != nil {
						t.Fatal(err)
					}
					n++
				}
				for k := 0; k < 2*users; k++ {
					query() // warm: pool, scratch capacities, lazily trained models
				}
				allocs := testing.AllocsPerRun(200, query)
				if allocs > q.bound {
					t.Fatalf("%s %s, %s: %v allocations per query, want at most %v", algo, q.name, name, allocs, q.bound)
				}
				t.Logf("%s %s, %s: %v allocations per query", algo, q.name, name, allocs)
			}
		}
	}
}
