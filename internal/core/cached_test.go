package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"longtailrec/internal/cache"
	"longtailrec/internal/graph"
)

// newCachedAT builds an AT recommender over the Figure 2 graph plus its
// cached twin sharing the same graph (and therefore the same epoch).
func newCachedAT(t testing.TB, c *cache.Cache[CacheEntry]) (*graph.Bipartite, *AbsorbingTime, *CachedRecommender) {
	t.Helper()
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	cached, err := NewCachedRecommender(at, g, c)
	if err != nil {
		t.Fatal(err)
	}
	return g, at, cached
}

// TestCachedGoldenEquivalence is the golden equivalence check of the
// serving layer: for every user, the cached path (cold miss AND warm hit)
// returns results byte-identical to the uncached engine.
func TestCachedGoldenEquivalence(t *testing.T) {
	c := cache.New[CacheEntry](128)
	g, at, cached := newCachedAT(t, c)
	uncachedTwin := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	for u := 0; u < g.NumUsers(); u++ {
		want, err := RecommendItems(uncachedTwin, u, 4)
		if err != nil {
			t.Fatal(err)
		}
		miss, err := RecommendItems(cached, u, 4)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := RecommendItems(cached, u, 4)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := RecommendItems(at, u, 4)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]Scored{"miss": miss, "hit": hit, "direct": direct} {
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("user %d %s path diverged:\nwant %+v\ngot  %+v", u, name, want, got)
			}
			wb, _ := json.Marshal(want)
			gb, _ := json.Marshal(got)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("user %d %s path not byte-identical:\n%s\n%s", u, name, wb, gb)
			}
		}
	}
	st := c.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected both misses and hits, got %+v", st)
	}
}

// TestCachedEpochInvalidation pins the invalidation contract: a live write
// bumps the epoch, so exactly the entries computed before it become
// unreachable (and sweepable), while same-epoch entries keep hitting.
func TestCachedEpochInvalidation(t *testing.T) {
	c := cache.New[CacheEntry](128)
	g, _, cached := newCachedAT(t, c)

	// Warm the cache for every user at epoch 0.
	before := make(map[int][]Scored)
	for u := 0; u < g.NumUsers(); u++ {
		recs, err := RecommendItems(cached, u, 4)
		if err != nil {
			t.Fatal(err)
		}
		before[u] = recs
	}
	warm := c.Stats()
	if warm.Misses != uint64(g.NumUsers()) || c.Len() != g.NumUsers() {
		t.Fatalf("warmup: %+v len=%d", warm, c.Len())
	}
	// Every repeat at the same epoch hits.
	if _, err := RecommendItems(cached, 1, 4); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("same-epoch repeat did not hit: %+v", st)
	}

	// A write into user 4's neighborhood: item 3 (M4, previously only
	// rated by user 3) gets a rating from user 4.
	epochBefore := g.Epoch()
	if err := g.AddRating(4, 3, 5); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != epochBefore+1 {
		t.Fatalf("epoch %d -> %d, want +1", epochBefore, g.Epoch())
	}

	// Next query recomputes (the write touched user 4's node, so the
	// entry's fingerprint rules it stale) and reflects the write: item 3
	// is now rated by user 4 and must be excluded.
	missesBefore := c.Stats().Misses
	after, err := RecommendItems(cached, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != missesBefore+1 {
		t.Fatalf("post-write query was served stale: misses %d -> %d", missesBefore, got)
	}
	for _, r := range after {
		if r.Item == 3 {
			t.Fatalf("stale result: newly rated item 3 recommended: %+v", after)
		}
	}
	if reflect.DeepEqual(before[4], after) {
		t.Fatalf("write had no effect on user 4's recommendations")
	}

	// The sweep drops exactly the stale entries. The Figure 2 graph is one
	// small connected component, so every user's subgraph (and bloom)
	// covers the written nodes: the epoch-0 entries all rule stale. User
	// 4's recompute overwrote its old entry in place (freshness is no
	// longer part of the key), so exactly NumUsers()-1 stale entries
	// remain to drop.
	if dropped := c.Revalidate(EntryValidator(g)); dropped != g.NumUsers()-1 {
		t.Fatalf("Revalidate dropped %d, want exactly %d stale entries", dropped, g.NumUsers()-1)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries after sweep, want 1", c.Len())
	}
	if _, err := RecommendItems(cached, 4, 4); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits < 2 {
		t.Fatalf("current-epoch entry evicted by sweep: %+v", st)
	}
}

// countingRecommender counts the computes that reach the recommender it
// wraps.
type countingRecommender struct {
	Recommender
	calls atomic.Int64
}

func (c *countingRecommender) Recommend(req Request, fp *graph.Fingerprint) (Response, error) {
	c.calls.Add(1)
	return c.Recommender.Recommend(req, fp)
}

// TestCachedBatch checks a batch over the cached path: cached users are
// served without recompute, misses fill the cache, cold users stay zero
// and uncached, and a cold-cache batch naming one user several times
// computes once per distinct (user, k, option set) — every batch request
// goes through the same singleflight a single request does.
func TestCachedBatch(t *testing.T) {
	c := cache.New[CacheEntry](128)
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	inner := &countingRecommender{Recommender: at}
	cached, err := NewCachedRecommender(inner, g, c)
	if err != nil {
		t.Fatal(err)
	}
	users := []int{0, 2, 4}
	want, err := serveUsers(at, users, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	lists := func(resps []Response) [][]Scored {
		out := make([][]Scored, len(resps))
		for i, resp := range resps {
			out[i] = resp.Items
		}
		return out
	}
	got, err := serveUsers(cached, users, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lists(want), lists(got)) {
		t.Fatalf("cold batch diverged:\nwant %+v\ngot  %+v", want, got)
	}
	misses := c.Stats().Misses
	got2, err := serveUsers(cached, users, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lists(want), lists(got2)) {
		t.Fatalf("warm batch diverged")
	}
	if c.Stats().Misses != misses || inner.calls.Load() != int64(len(users)) {
		t.Fatalf("warm batch recomputed: misses %d -> %d, %d inner calls", misses, c.Stats().Misses, inner.calls.Load())
	}
	for i, resp := range got2 {
		if !resp.CacheHit || resp.Epoch != g.Epoch() {
			t.Fatalf("warm batch entry %d metadata: %+v", i, resp)
		}
	}
	// Mutating a returned list must not corrupt the cache.
	got2[0].Items[0].Item = -99
	got3, err := serveUsers(cached, users, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got3[0].Items[0].Item == -99 {
		t.Fatal("caller mutation leaked into the cache")
	}

	// Duplicates on a cold cache, at every worker count: one compute per
	// distinct key, every copy answered alike.
	dupes := []Request{
		{User: 1, K: 3}, {User: 1, K: 3}, {User: 3, K: 3}, {User: 1, K: 3},
		{User: 1, K: 2}, {User: 3, K: 3}, {User: 1, K: 3, ExcludeItems: []int{0}},
		{User: 1, K: 3, ExcludeItems: []int{0, 0}}, {User: 1, K: 3},
	}
	const distinct = 4 // (1,3) (3,3) (1,2) (1,3,x:0)
	for _, parallelism := range []int{1, 2, 8} {
		c.Purge()
		callsBefore, missesBefore := inner.calls.Load(), c.Stats().Misses
		resps, err := ServeBatch(dupes, parallelism, func(req Request) (Response, error) {
			return cached.Recommend(req, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls, misses := inner.calls.Load()-callsBefore, c.Stats().Misses-missesBefore; calls != distinct || misses != distinct {
			t.Fatalf("parallelism %d: %d inner computes, %d misses for %d distinct keys", parallelism, calls, misses, distinct)
		}
		for _, i := range []int{1, 3, 8} {
			if !reflect.DeepEqual(resps[0].Items, resps[i].Items) {
				t.Fatalf("parallelism %d: duplicate %d answered %+v, first copy %+v", parallelism, i, resps[i].Items, resps[0].Items)
			}
		}
	}

	// A cold user is a zero Response and leaves nothing behind.
	cg, err := graph.FromRatings(2, 2, []graph.Rating{{User: 0, Item: 0, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	cc := cache.New[CacheEntry](16)
	coldCached, err := NewCachedRecommender(NewAbsorbingTime(cg, WalkOptions{Iterations: 5}), cg, cc)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := serveUsers(coldCached, []int{0, 1}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Algo != "AT" || resps[1].Algo != "" || resps[1].Items != nil || cc.Len() != 1 {
		t.Fatalf("cold batch: %+v, %d entries cached", resps, cc.Len())
	}
}

// TestCachedColdUserNotCached: errors (cold user) pass through uncached.
func TestCachedColdUser(t *testing.T) {
	c := cache.New[CacheEntry](16)
	g, err := graph.FromRatings(2, 2, []graph.Rating{{User: 0, Item: 0, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 5})
	cached, err := NewCachedRecommender(at, g, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecommendItems(cached, 1, 3); !errors.Is(err, ErrColdUser) {
		t.Fatalf("err = %v, want ErrColdUser", err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	// The user receives a first rating: the next query succeeds.
	if err := g.AddRating(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := RecommendItems(cached, 1, 3); err != nil {
		t.Fatalf("post-write query failed: %v", err)
	}
}

// TestConcurrentCachedRecommend hammers the cached recommender from many
// readers while one writer mutates the live graph — the serving-layer race
// test the Makefile race target runs.
func TestConcurrentCachedRecommend(t *testing.T) {
	c := cache.New[CacheEntry](256)
	g, _, cached := newCachedAT(t, c)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				u := (w + q) % g.NumUsers()
				if _, err := RecommendItems(cached, u, 4); err != nil {
					t.Error(err)
					return
				}
				if q%7 == 0 {
					if _, err := serveUsers(cached, []int{0, 2, 4}, 3, 2); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 120; w++ {
		u, i := w%g.NumUsers(), w%g.NumItems()
		if _, err := g.UpsertRating(u, i, 1+float64(w%5)); err != nil {
			t.Fatal(err)
		}
		if w%40 == 39 {
			g.Compact()
			c.Revalidate(EntryValidator(g))
		}
	}
	close(stop)
	wg.Wait()
}

// TestCachedOptionKeyIsolation is the cache-key collision test for the
// Request surface: requests that differ only in their option set must
// never share a cached entry — each option set computes once, is served
// from its own entry afterwards, and returns its own (different) result.
func TestCachedOptionKeyIsolation(t *testing.T) {
	c := cache.New[CacheEntry](128)
	_, at, cached := newCachedAT(t, c)

	plain := Request{User: 0, K: 4}
	filtered := Request{User: 0, K: 4, LongTailOnly: 0.2}

	p1, err := cached.Recommend(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := cached.Recommend(filtered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.CacheHit || f1.CacheHit {
		t.Fatalf("first lookups hit: %+v %+v", p1, f1)
	}
	if reflect.DeepEqual(p1.Items, f1.Items) {
		t.Fatalf("option sets chosen for this test must produce different results, both got %+v", p1.Items)
	}
	// Warm repeats: each option set hits its own entry and returns its
	// own result — never the other's.
	p2, err := cached.Recommend(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := cached.Recommend(filtered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit || !f2.CacheHit {
		t.Fatalf("warm repeats missed: %+v %+v", p2, f2)
	}
	if !reflect.DeepEqual(p1.Items, p2.Items) || !reflect.DeepEqual(f1.Items, f2.Items) {
		t.Fatal("cached results diverged from their cold computes")
	}
	if reflect.DeepEqual(p2.Items, f2.Items) {
		t.Fatal("differently-optioned requests shared a cached result")
	}
	// Exactly two entries: one per option set.
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	// Both match their uncached twins.
	wantPlain, err := at.Recommend(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantFiltered, err := at.Recommend(filtered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantPlain.Items, p2.Items) || !reflect.DeepEqual(wantFiltered.Items, f2.Items) {
		t.Fatal("cached option-set results diverged from the uncached engine")
	}
	// Canonically equal option encodings DO share: a reordered,
	// duplicated exclude list is the same option set.
	e1, err := cached.Recommend(Request{User: 1, K: 4, ExcludeItems: []int{2, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cached.Recommend(Request{User: 1, K: 4, ExcludeItems: []int{0, 2, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1.CacheHit || !e2.CacheHit {
		t.Fatalf("canonical option sharing broken: %+v %+v", e1, e2)
	}
}

// TestCachedResponseMetadata pins the Response envelope of the cached
// path: epoch stamping, cache-hit marking, and caller ownership of the
// Items slice.
func TestCachedResponseMetadata(t *testing.T) {
	c := cache.New[CacheEntry](128)
	g, _, cached := newCachedAT(t, c)
	miss, err := cached.Recommend(Request{User: 2, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit || miss.Epoch != g.Epoch() || miss.Algo != "AT" {
		t.Fatalf("miss metadata: %+v (graph epoch %d)", miss, g.Epoch())
	}
	hit, err := cached.Recommend(Request{User: 2, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Epoch != g.Epoch() {
		t.Fatalf("hit metadata: %+v", hit)
	}
	// Mutating a returned list must not corrupt the cache.
	hit.Items[0].Item = -99
	again, err := cached.Recommend(Request{User: 2, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Items[0].Item == -99 {
		t.Fatal("caller mutation leaked into the cache")
	}
	// A live write moves the epoch: the next lookup misses and restamps.
	if err := g.AddRating(2, 4, 5); err != nil {
		t.Fatal(err)
	}
	fresh, err := cached.Recommend(Request{User: 2, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CacheHit || fresh.Epoch != g.Epoch() {
		t.Fatalf("post-write metadata: %+v (graph epoch %d)", fresh, g.Epoch())
	}
}

// TestCachedSingleflightLeaderCancellation: a singleflight leader whose
// request context is cancelled mid-compute must not poison a
// piggybacked waiter whose own context is live — the waiter retries and
// gets a real result, never the leader's context error.
func TestCachedSingleflightLeaderCancellation(t *testing.T) {
	c := cache.New[CacheEntry](64)
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 20000}) // ms-scale solve
	cached, err := NewCachedRecommender(at, g, c)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		var leaderErr, waiterErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, leaderErr = cached.Recommend(Request{Ctx: ctx, User: 0, K: 3}, nil)
		}()
		go func() {
			defer wg.Done()
			_, waiterErr = cached.Recommend(Request{User: 0, K: 3}, nil)
		}()
		cancel()
		wg.Wait()
		// The cancelled client may get its own context error or (having
		// piggybacked on the healthy flight) a result; the live client
		// must always get a result.
		if leaderErr != nil && !errors.Is(leaderErr, context.Canceled) {
			t.Fatalf("round %d: cancelled client error = %v", round, leaderErr)
		}
		if waiterErr != nil {
			t.Fatalf("round %d: live client inherited failure: %v", round, waiterErr)
		}
		c.Purge() // force a fresh singleflight next round
	}
}
