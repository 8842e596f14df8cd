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
// island size every query is a truncated BFS that rebuilds; on an island
// large enough for the walk to share its sweeps with the helper
// goroutine, measured at GOMAXPROCS=2, reuse holds the same counts (the
// split allocates nothing). A refresh or a rebuild costs one allocation
// more than a reuse: the view of the CSR it built. Recommend holds at 25
// (the rule
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
	// One island of 64k stored entries, above the size from which the
	// walk shares its sweeps with a helper goroutine (markov's split
	// threshold, 48k).
	const bigUsers, bigItems = 1600, 1200
	var bigRatings []Rating
	for u := 0; u < bigUsers; u++ {
		for k := 0; k < 20; k++ {
			bigRatings = append(bigRatings, Rating{User: u, Item: (u*7 + k*61) % bigItems, Score: float64(1 + (u+k)%5)})
		}
	}
	bigD, err := NewDataset(bigUsers, bigItems, bigRatings)
	if err != nil {
		t.Fatal(err)
	}
	newSystem := func(d *Dataset, mu int) *System {
		cfg := DefaultConfig()
		cfg.LDA = lda.Config{NumTopics: 4, Alpha: 0.5, Iterations: 10, Seed: 25}
		cfg.Walk.MaxSubgraphItems = mu
		sys, err := NewSystem(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	mu := DefaultConfig().Walk.MaxSubgraphItems
	sys, truncated, big := newSystem(d, mu), newSystem(d, items/2), newSystem(bigD, mu)
	alternate := func(n int) int { return (n%2)*users + n%users }
	for _, algo := range []string{"AT", "AC2"} {
		for _, path := range []struct {
			name  string
			sys   *System
			user  func(n int) int
			write bool
			procs int // GOMAXPROCS while measured
			warm  int // unmeasured queries first
		}{
			{"one island (reuse)", sys, func(n int) int { return n % users }, false, 1, 2 * users},
			{"alternating islands, written (refresh)", sys, alternate, true, 1, 2 * users},
			{"µ below the island (rebuild)", truncated, alternate, false, 1, 2 * users},
			{"one island above the split threshold, two cores (reuse)", big, func(n int) int { return n % bigUsers }, false, 2, 20},
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
				for k := 0; k < path.warm; k++ {
					write()
					query() // warm: pool, scratch capacities, lazily trained models
				}
				allocs := allocsAfter(path.procs, 200, write, query)
				if allocs > q.bound {
					t.Fatalf("%s %s, %s: %v allocations per query, want at most %v", algo, q.name, path.name, allocs, q.bound)
				}
				t.Logf("%s %s, %s: %v allocations per query", algo, q.name, path.name, allocs)
			}
		}
	}
}

// allocsAfter is testing.AllocsPerRun for f alone, at GOMAXPROCS procs:
// prepare runs before each of the runs calls, unmeasured. It collects
// first, and runs one unmeasured call to move the pooled scratch back out
// of the victim cache, so that no collection, which empties the pool,
// falls in the window.
func allocsAfter(procs, runs int, prepare, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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
