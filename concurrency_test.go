package longtail

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"longtailrec/internal/lda"
	"longtailrec/internal/synth"
)

// batchLists serves the plain (users, k) batch through
// System.RecommendRequests and strips the Responses to their lists (nil
// for a cold user).
func batchLists(sys *System, algo string, users []int, k, parallelism int) ([][]Scored, error) {
	reqs := make([]Request, len(users))
	for i, u := range users {
		reqs[i] = Request{User: u, K: k}
	}
	resps, err := sys.RecommendRequests(context.Background(), algo, reqs, parallelism)
	if err != nil {
		return nil, err
	}
	lists := make([][]Scored, len(resps))
	for i, resp := range resps {
		lists[i] = resp.Items
	}
	return lists, nil
}

// TestConcurrentRecommendSharedSystem hammers one shared System from many
// goroutines mixing single requests and batches across EVERY algorithm of
// the suite: the one batch fan-out calls the score-function adapters from
// several goroutines, exactly as the HTTP server does for single
// requests, so each trained model's scoring path has to be read-only.
// Run with `go test -race` (the Makefile's race target) this locks in the
// thread-safety of the pooled walk query engine, the adapters' models and
// the System's lazy recommender cache.
func TestConcurrentRecommendSharedSystem(t *testing.T) {
	w, err := synth.Generate(synth.Config{
		NumUsers: 30, NumItems: 40, NumGenres: 3,
		MeanRatingsPerUser: 8, MinRatingsPerUser: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 3, Alpha: 0.5, Iterations: 15, Seed: 11}
	cfg.SVDRank = 6
	cfg.Seed = 11
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := sys.Data().SampleUsers(rand.New(rand.NewSource(3)), 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	algos := AlgorithmNames()
	// Lazy construction is probed concurrently too: nothing is resolved
	// before the workers start.
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 2*runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 2*len(algos); q++ {
				algo := algos[(w+q)%len(algos)]
				if q%3 == 0 {
					if _, err := batchLists(sys, algo, users, 5, 3); err != nil {
						errc <- err
						return
					}
					continue
				}
				rec, err := sys.Algorithm(algo)
				if err != nil {
					errc <- err
					return
				}
				if _, err := RecommendItems(rec, users[(w*5+q)%len(users)], 5); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentBatchDeterministic checks that a batch returns, item for
// item, what one single request per user returns — for every walk
// algorithm and regardless of parallelism.
func TestConcurrentBatchDeterministic(t *testing.T) {
	sys, _ := smallSystem(t, 12)
	users, err := sys.Data().SampleUsers(rand.New(rand.NewSource(4)), 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"HT", "AT", "AC1", "AC3"} {
		sequential := make([][]Scored, len(users))
		for i, u := range users {
			resp, err := sys.Recommend(context.Background(), algo, Request{User: u, K: 6})
			if err != nil {
				t.Fatal(err)
			}
			sequential[i] = resp.Items
		}
		for _, par := range []int{1, 2, 4, 0} {
			parallel, err := batchLists(sys, algo, users, 6, par)
			if err != nil {
				t.Fatal(err)
			}
			for i := range users {
				if !slices.Equal(sequential[i], parallel[i]) {
					t.Fatalf("%s user %d at parallelism %d:\nbatch  %+v\nsingle %+v",
						algo, users[i], par, parallel[i], sequential[i])
				}
			}
		}
	}
}

// TestConcurrentLiveWriteServing is the PR 2 serving-layer race check:
// one shared cache-enabled System serves concurrent single-request and
// batch traffic while a single writer streams live ratings into
// the graph, compacting and sweeping stale cache entries along the way.
// Run under `make race`.
func TestConcurrentLiveWriteServing(t *testing.T) {
	_, w := smallSystem(t, 13)
	cfg := DefaultConfig()
	cfg.CacheSize = 512
	cfg.CompactThreshold = 32
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := sys.Data().SampleUsers(rand.New(rand.NewSource(5)), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var served atomic.Int64
	stop := make(chan struct{})
	// One slot per reader so a systemic failure can never block a sender
	// (and thereby deadlock wg.Wait) on many-core machines.
	errc := make(chan error, 2*runtime.GOMAXPROCS(0))
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				algo := []string{"HT", "AT"}[(g+q)%2]
				if q%5 == 0 {
					if _, err := batchLists(sys, algo, users, 5, 2); err != nil {
						errc <- err
						return
					}
					served.Add(1)
					continue
				}
				rec, err := sys.Algorithm(algo)
				if err != nil {
					errc <- err
					return
				}
				if _, err := RecommendItems(rec, users[(g*3+q)%len(users)], 5); err != nil {
					errc <- err
					return
				}
				served.Add(1)
			}
		}(g)
	}
	// Pace the write stream against actual query progress so readers and
	// the writer genuinely overlap (on one core a free-running writer
	// finishes before the first query completes).
	rng := rand.New(rand.NewSource(6))
	nu, ni := sys.Data().NumUsers(), sys.Data().NumItems()
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 150; i++ {
		if _, _, err := sys.ApplyRating(rng.Intn(nu), rng.Intn(ni), 1+float64(rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			sys.CompactGraph()
			sys.EvictStaleCache()
		}
		for served.Load() < int64(i/3) && time.Now().Before(deadline) && len(errc) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	for served.Load() < 40 && time.Now().Before(deadline) && len(errc) == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if sys.Epoch() == 0 {
		t.Error("writer made no progress")
	}
	st := sys.ServingStats()
	if !st.CacheEnabled || st.Cache.Misses == 0 {
		t.Errorf("cache never exercised: %+v", st)
	}
}

// TestConcurrentOpenUniverseServing: one writer grows the universe with
// auto-grow rating writes — brand-new users rating a mix of existing and
// brand-new items — while readers recommend through the cached walk
// engines against the moving graph. Run under -race; this locks in the
// thread-safety of the atomic universe snapshot, the per-query scratch
// re-sizing, and epoch invalidation across admissions.
func TestConcurrentOpenUniverseServing(t *testing.T) {
	_, w := smallSystem(t, 17)
	cfg := ServingConfig(512, 32)
	cfg.LDA.NumTopics = 4
	cfg.LDA.Iterations = 10
	cfg.SVDRank = 8
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := sys.Data().SampleUsers(rand.New(rand.NewSource(9)), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var served atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, 2*runtime.GOMAXPROCS(0))
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				algo := []string{"HT", "AT"}[(g+q)%2]
				rec, err := sys.Algorithm(algo)
				if err != nil {
					errc <- err
					return
				}
				// Mostly established users; sometimes whoever is newest.
				u := users[(g*3+q)%len(users)]
				if q%4 == 3 {
					nu, _ := sys.Universe()
					u = nu - 1
				}
				if _, err := RecommendItems(rec, u, 5); err != nil && !errors.Is(err, ErrColdUser) {
					errc <- err
					return
				}
				served.Add(1)
			}
		}(g)
	}
	// The write stream: each step a never-before-seen user rates one
	// existing item and one never-before-seen item.
	rng := rand.New(rand.NewSource(10))
	baseUsers, baseItems := sys.Data().NumUsers(), sys.Data().NumItems()
	deadline := time.Now().Add(30 * time.Second)
	const newcomers = 60
	for k := 0; k < newcomers; k++ {
		u, i := baseUsers+k, baseItems+k
		if _, _, err := sys.ApplyRating(u, rng.Intn(baseItems), 1+float64(rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.ApplyRating(u, i, 1+float64(rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
		if k%20 == 19 {
			sys.CompactGraph()
			sys.EvictStaleCache()
		}
		for served.Load() < int64(k) && time.Now().Before(deadline) && len(errc) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	for served.Load() < 30 && time.Now().Before(deadline) && len(errc) == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	nu, ni := sys.Universe()
	if nu != baseUsers+newcomers || ni != baseItems+newcomers {
		t.Errorf("universe %d/%d, want %d/%d", nu, ni, baseUsers+newcomers, baseItems+newcomers)
	}
	// The newest user is immediately servable by the live walk engine.
	recs, err := RecommendItems(mustAlgorithm(t, sys, "AT"), nu-1, 5)
	if err != nil {
		t.Fatalf("recommend for grown user: %v", err)
	}
	if len(recs) == 0 {
		t.Error("no recommendations for grown user with two ratings")
	}
}

// TestConcurrentColdStartStorm: four writers drain ONE ascending arrival
// stream of brand-new users (two ratings each) into a two-shard auto-grow
// fleet. No write may be rejected, the universe must grow by exactly the
// number of newcomers, and every newcomer must be served by the walk
// engine on its own ratings — no fallback. (TestConcurrentOpenUniverseServing
// above has a single writer.)
func TestConcurrentColdStartStorm(t *testing.T) {
	_, w := smallSystem(t, 19)
	cfg := ServingConfig(512, 0)
	cfg.ShardCount = 2
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseUsers, numItems := w.Data.NumUsers(), w.Data.NumItems()
	const newcomers, perUser, writers = 48, 2, 4

	type write struct{ user, item int }
	// 32 slots: with the writers' own hands that is at most 36 ops in
	// flight, so however the writers interleave, the ids they carry stay
	// far inside graph.MaxDenseAdmissions (1,024) of the universe edge.
	feed := make(chan write, 32)
	go func() {
		for k := 0; k < newcomers; k++ {
			for r := 0; r < perUser; r++ {
				feed <- write{user: baseUsers + k, item: (7*k + 31*r) % numItems}
			}
		}
		close(feed)
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range feed {
				if _, _, err := sys.ApplyRating(op.user, op.item, 1+float64(op.item%5)); err != nil {
					t.Errorf("storm write (user %d, item %d) rejected: %v", op.user, op.item, err)
				}
			}
		}()
	}
	wg.Wait()

	if nu, ni := sys.Universe(); nu != baseUsers+newcomers || ni != numItems {
		t.Fatalf("universe %d/%d, want %d/%d", nu, ni, baseUsers+newcomers, numItems)
	}
	ctx := context.Background()
	for u := baseUsers; u < baseUsers+newcomers; u++ {
		resp, err := sys.Recommend(ctx, "AT", Request{User: u, K: 5})
		if err != nil {
			t.Fatalf("newcomer %d not servable: %v", u, err)
		}
		if resp.Fallback || len(resp.Items) == 0 {
			t.Fatalf("newcomer %d: fallback=%v, %d items; want a walk result", u, resp.Fallback, len(resp.Items))
		}
	}
}

// TestConcurrentFlashCrowd: eight readers hammer eight hot users through
// a cold cache, all walking the hot set in the same order so every first
// touch is a thundering herd. Singleflight must coalesce it (at most one
// miss per hot user), the hit share must clear 0.9, and on an unwritten
// graph every read of a user must equal the first read of that user.
func TestConcurrentFlashCrowd(t *testing.T) {
	_, w := smallSystem(t, 23)
	cfg := DefaultConfig()
	cfg.CacheSize = 512
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := sys.Data().SampleUsers(rand.New(rand.NewSource(7)), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	const readers, readsEach = 8, 64
	ctx := context.Background()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first = map[int][]Scored{}
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsEach; i++ {
				u := hot[i%len(hot)]
				resp, err := sys.Recommend(ctx, "AT", Request{User: u, K: 10})
				if err != nil {
					t.Errorf("read of user %d: %v", u, err)
					return
				}
				mu.Lock()
				if prev, ok := first[u]; !ok {
					first[u] = resp.Items
				} else if !slices.Equal(prev, resp.Items) {
					t.Errorf("user %d: read differs from the first read on an unwritten graph", u)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	st := sys.ServingStats().Cache
	if st.Misses > uint64(len(hot)) {
		t.Errorf("%d cache misses for %d hot users: the herd was not coalesced", st.Misses, len(hot))
	}
	lookups := st.Hits + st.Misses + st.Shared
	if lookups != readers*readsEach {
		t.Errorf("cache saw %d lookups, want %d", lookups, readers*readsEach)
	}
	if share := float64(st.Hits+st.Shared) / float64(lookups); share < 0.9 {
		t.Errorf("hit share %.3f under 0.9 (%+v)", share, st)
	}
}
