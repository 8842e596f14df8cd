//go:build !race

package longtail

import (
	"math/rand"
	"runtime"
	"testing"

	"longtailrec/internal/core"
	"longtailrec/internal/lda"
)

// TestWalkRecommendAllocs holds a warm AT and AC2 query at the walk hot
// path's allocation counts, on each path of the components the engine
// keeps: users of one island in turn reuse one; users of alternating
// islands, each read after a re-rate (to a new weight) in its island,
// find theirs kept and refresh its CSR without a BFS; at a µ below the
// island size every query is a truncated BFS that rebuilds. A refresh or
// a rebuild costs one allocation more than a reuse: the view of the CSR
// it built. Recommend holds at 25 (the rule
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
	newSystem := func(mu int) *System {
		cfg := DefaultConfig()
		cfg.LDA = lda.Config{NumTopics: 4, Alpha: 0.5, Iterations: 10, Seed: 25}
		cfg.Walk.MaxSubgraphItems = mu
		sys, err := NewSystem(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys, truncated := newSystem(DefaultConfig().Walk.MaxSubgraphItems), newSystem(items/2)
	alternate := func(n int) int { return (n%2)*users + n%users }
	for _, algo := range []string{"AT", "AC2"} {
		for _, path := range []struct {
			name  string
			sys   *System
			user  func(n int) int
			write bool
		}{
			{"one island (reuse)", sys, func(n int) int { return n % users }, false},
			{"alternating islands, written (refresh)", sys, alternate, true},
			{"µ below the island (rebuild)", truncated, alternate, false},
		} {
			rec, err := path.sys.Algorithm(algo)
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
				n := 0
				// write re-rates the first item of the user read next.
				write := func() {
					if !path.write {
						return
					}
					u := path.user(n)
					rated := d.UserRatings(u)
					if _, _, err := path.sys.ApplyRating(u, rated[0].Item, float64(1+(n/users)%5)); err != nil {
						t.Fatal(err)
					}
				}
				query := func() {
					if err := q.run(path.user(n)); err != nil {
						t.Fatal(err)
					}
					n++
				}
				for k := 0; k < 2*users; k++ {
					write()
					query() // warm: pool, scratch capacities, lazily trained models
				}
				allocs := allocsAfter(200, write, query)
				if allocs > q.bound {
					t.Fatalf("%s %s, %s: %v allocations per query, want at most %v", algo, q.name, path.name, allocs, q.bound)
				}
				t.Logf("%s %s, %s: %v allocations per query", algo, q.name, path.name, allocs)
			}
		}
	}
}

// allocsAfter is testing.AllocsPerRun for f alone: prepare runs before
// each of the runs calls, unmeasured. It collects first, and runs one
// unmeasured call to move the pooled scratch back out of the victim
// cache, so that no collection, which empties the pool, falls in the
// window.
func allocsAfter(runs int, prepare, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	prepare()
	f()
	var before, after runtime.MemStats
	total := uint64(0)
	for k := 0; k < runs; k++ {
		prepare()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total / uint64(runs)) // whole allocations, as AllocsPerRun reports
}
