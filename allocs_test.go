//go:build !race

package longtail

import (
	"math/rand"
	"testing"

	"longtailrec/internal/lda"
)

// TestWalkRecommendAllocs holds a warm AT and AC2 recommendation at the
// walk hot path's 25 allocations (the rule BenchmarkQueryAT/AC2 print in
// `make bench`), on both sides of the component the engine keeps: users
// of one island in turn reuse it, users of alternating islands rebuild it
// on every query. A rebuild may cost time, not allocations. Compiled out
// under -race, whose instrumentation allocates.
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
		for name, user := range map[string]func(n int) int{
			"one island (reuse)":            func(n int) int { return n % users },
			"alternating islands (rebuild)": func(n int) int { return (n%2)*users + n%users },
		} {
			n := 0
			query := func() {
				if _, err := RecommendItems(rec, user(n), 10); err != nil {
					t.Fatal(err)
				}
				n++
			}
			for k := 0; k < 2*users; k++ {
				query() // warm: pool, scratch capacities, lazily trained models
			}
			allocs := testing.AllocsPerRun(200, query)
			if allocs > 25 {
				t.Fatalf("%s, %s: %v allocations per recommendation, want at most 25", algo, name, allocs)
			}
			t.Logf("%s, %s: %v allocations per recommendation", algo, name, allocs)
		}
	}
}
